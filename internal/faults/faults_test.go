package faults

import (
	"testing"
	"time"

	"mindgap/internal/sim"
)

func d(v time.Duration) Duration { return Duration(v) }

func validBase() Spec {
	return Spec{
		NICCrash: []Window{{Start: d(10 * time.Millisecond), End: d(14 * time.Millisecond)}},
		Timeout:  d(time.Millisecond),
		Retries:  3,
		Degrade:  true,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		ok   bool
	}{
		{"base", func(*Spec) {}, true},
		{"inverted window", func(s *Spec) { s.NICCrash[0].End = d(time.Millisecond) }, false},
		{"zero-length window", func(s *Spec) { s.NICCrash[0].End = s.NICCrash[0].Start }, false},
		{"negative start", func(s *Spec) { s.NICCrash[0].Start = d(-time.Millisecond) }, false},
		{"slow windows without factor", func(s *Spec) {
			s.NICSlow = []Window{{Start: d(time.Millisecond), End: d(2 * time.Millisecond)}}
		}, false},
		{"slow factor without windows", func(s *Spec) { s.NICSlowFactor = 0.5 }, false},
		{"slow factor out of range", func(s *Spec) {
			s.NICSlow = []Window{{Start: d(time.Millisecond), End: d(2 * time.Millisecond)}}
			s.NICSlowFactor = 1.5
		}, false},
		{"valid slowdown", func(s *Spec) {
			s.NICSlow = []Window{{Start: d(time.Millisecond), End: d(2 * time.Millisecond)}}
			s.NICSlowFactor = 0.25
		}, true},
		{"stall workers without windows", func(s *Spec) { s.StallWorkers = []int{1} }, false},
		{"loss rate without windows", func(s *Spec) { s.LossRate = 0.1 }, false},
		{"loss windows without rate", func(s *Spec) {
			s.LinkLoss = []Window{{Start: 0, End: d(time.Millisecond)}}
		}, false},
		{"loss rate above one", func(s *Spec) {
			s.LinkLoss = []Window{{Start: 0, End: d(time.Millisecond)}}
			s.LossRate = 1.5
		}, false},
		{"valid loss bursts", func(s *Spec) {
			s.LossBursts = &Bursts{N: 3, Horizon: d(time.Second), MeanLen: d(time.Millisecond)}
			s.LossRate = 0.5
		}, true},
		{"bursts without n", func(s *Spec) {
			s.LossBursts = &Bursts{Horizon: d(time.Second), MeanLen: d(time.Millisecond)}
			s.LossRate = 0.5
		}, false},
		{"delay windows without extra", func(s *Spec) {
			s.LinkDelay = []Window{{Start: 0, End: d(time.Millisecond)}}
		}, false},
		{"delay extra without windows", func(s *Spec) { s.DelayExtra = d(time.Microsecond) }, false},
		{"retries without timeout", func(s *Spec) { s.Timeout = 0 }, false},
		{"negative retries", func(s *Spec) { s.Retries = -1 }, false},
		{"backoff below one", func(s *Spec) { s.Backoff = 0.5 }, false},
		{"explicit backoff", func(s *Spec) { s.Backoff = 1.5 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := validBase()
			tc.mut(&sp)
			err := sp.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sp := validBase()
	sp.LossBursts = &Bursts{N: 4, Horizon: d(100 * time.Millisecond), MeanLen: d(250 * time.Microsecond)}
	sp.LossRate = 0.05
	b, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip changed encoding:\n%s\nvs\n%s", b, b2)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"nic_crash":[],"bogus":1}`)); err == nil {
		t.Fatal("Decode accepted an unknown field")
	}
}

func TestDurationForms(t *testing.T) {
	var got Spec
	for _, in := range []string{`{"timeout":"500µs"}`, `{"timeout":500000}`} {
		sp, err := Decode([]byte(in))
		if err != nil {
			t.Fatalf("Decode(%s): %v", in, err)
		}
		got = sp
		if got.Timeout.D() != 500*time.Microsecond {
			t.Fatalf("Decode(%s) timeout = %v, want 500µs", in, got.Timeout.D())
		}
	}
}

func TestStretchOutsideSpans(t *testing.T) {
	tl := mergeWindows([]Window{{Start: d(10 * time.Millisecond), End: d(14 * time.Millisecond)}}, 0)
	// Work that completes before the span starts is untouched.
	if got := tl.stretch(0, 5*time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("stretch before span = %v, want 5ms", got)
	}
	// Work starting after the span ends is untouched.
	if got := tl.stretch(sim.Time(20*time.Millisecond), time.Millisecond); got != time.Millisecond {
		t.Fatalf("stretch after span = %v, want 1ms", got)
	}
}

func TestStretchThroughCrash(t *testing.T) {
	tl := mergeWindows([]Window{{Start: d(10 * time.Millisecond), End: d(14 * time.Millisecond)}}, 0)
	// 2ms of work starting at 9ms: 1ms runs, 4ms crash, 1ms runs = 6ms wall.
	if got := tl.stretch(sim.Time(9*time.Millisecond), 2*time.Millisecond); got != 6*time.Millisecond {
		t.Fatalf("stretch through crash = %v, want 6ms", got)
	}
	// Work starting inside the crash waits for the end first.
	if got := tl.stretch(sim.Time(12*time.Millisecond), time.Millisecond); got != 3*time.Millisecond {
		t.Fatalf("stretch from inside crash = %v, want 3ms", got)
	}
}

func TestStretchThroughSlowdown(t *testing.T) {
	tl := mergeWindows([]Window{{Start: d(10 * time.Millisecond), End: d(20 * time.Millisecond)}}, 0.5)
	// 2ms of work starting at the span start runs at half rate: 4ms wall.
	if got := tl.stretch(sim.Time(10*time.Millisecond), 2*time.Millisecond); got != 4*time.Millisecond {
		t.Fatalf("stretch in slowdown = %v, want 4ms", got)
	}
	// 6ms of work starting at 18ms: 2ms span capacity is 1ms of work (2ms
	// wall), remaining 5ms runs healthy = 7ms wall.
	if got := tl.stretch(sim.Time(18*time.Millisecond), 6*time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("stretch across slowdown end = %v, want 7ms", got)
	}
}

func TestStretchNeverShrinks(t *testing.T) {
	tl := mergeWindows([]Window{{Start: d(time.Microsecond), End: d(time.Millisecond)}}, 0.999999)
	for _, work := range []time.Duration{1, 7, time.Microsecond, 333 * time.Nanosecond} {
		for _, at := range []sim.Time{0, 1, sim.Time(time.Microsecond), sim.Time(500 * time.Microsecond)} {
			if got := tl.stretch(at, work); got < work {
				t.Fatalf("stretch(%v, %v) = %v < work", at, work, got)
			}
		}
	}
}

func TestMergeWindowsCoalesces(t *testing.T) {
	tl := mergeWindows([]Window{
		{Start: d(5 * time.Millisecond), End: d(8 * time.Millisecond)},
		{Start: d(1 * time.Millisecond), End: d(3 * time.Millisecond)},
		{Start: d(2 * time.Millisecond), End: d(6 * time.Millisecond)},
	}, 0)
	if len(tl) != 1 {
		t.Fatalf("merged timeline has %d spans, want 1: %+v", len(tl), tl)
	}
	if tl[0].start != sim.Time(time.Millisecond) || tl[0].end != sim.Time(8*time.Millisecond) {
		t.Fatalf("merged span = %+v, want [1ms, 8ms)", tl[0])
	}
}

func TestOverlayCrashWins(t *testing.T) {
	slow := mergeWindows([]Window{{Start: d(0), End: d(10 * time.Millisecond)}}, 0.5)
	crash := mergeWindows([]Window{{Start: d(4 * time.Millisecond), End: d(6 * time.Millisecond)}}, 0)
	tl := overlay(slow, crash)
	if len(tl) != 3 {
		t.Fatalf("overlay produced %d spans, want 3: %+v", len(tl), tl)
	}
	wantFactors := []float64{0.5, 0, 0.5}
	for i, f := range wantFactors {
		if tl[i].factor != f {
			t.Fatalf("span %d factor = %v, want %v (%+v)", i, tl[i].factor, f, tl)
		}
	}
	// 3ms of work at 3ms: the 1ms before the crash runs at half rate
	// (0.5ms of work done), the crash holds 2ms, the next 4ms at half
	// rate do 2ms of work, and the final 0.5ms runs healthy = 7.5ms.
	if got := tl.stretch(sim.Time(3*time.Millisecond), 3*time.Millisecond); got != 7500*time.Microsecond {
		t.Fatalf("stretch over overlay = %v, want 7.5ms", got)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sp := Spec{
		LossRate:    0.5,
		LossBursts:  &Bursts{N: 16, Horizon: d(50 * time.Millisecond), MeanLen: d(200 * time.Microsecond)},
		DelayExtra:  d(20 * time.Microsecond),
		DelayBursts: &Bursts{N: 8, Horizon: d(50 * time.Millisecond), MeanLen: d(100 * time.Microsecond)},
	}
	a, b := New(sp, 7), New(sp, 7)
	if len(a.loss) == 0 || len(a.delay) == 0 {
		t.Fatal("burst materialization produced no windows")
	}
	for i := range a.loss {
		if a.loss[i] != b.loss[i] {
			t.Fatalf("loss span %d differs across same-seed schedules", i)
		}
	}
	for i := range a.delay {
		if a.delay[i] != b.delay[i] {
			t.Fatalf("delay span %d differs across same-seed schedules", i)
		}
	}
	// Same spec, different seed: windows must move.
	c := New(sp, 8)
	same := len(a.loss) == len(c.loss)
	if same {
		for i := range a.loss {
			if a.loss[i] != c.loss[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical burst windows")
	}
	// The per-message draw stream is deterministic too.
	for i := 0; i < 1000; i++ {
		now := sim.Time(i) * sim.Time(50*time.Microsecond)
		da, ea := a.LinkFault(now)
		db, eb := b.LinkFault(now)
		if da != db || ea != eb {
			t.Fatalf("LinkFault diverged at %v", now)
		}
	}
	if a.LossDrops() != b.LossDrops() || a.DelayHits() != b.DelayHits() {
		t.Fatal("fault counters diverged across same-seed schedules")
	}
}

func TestAttemptTimeout(t *testing.T) {
	s := New(Spec{Timeout: d(time.Millisecond), Retries: 3}, 1)
	if got := s.AttemptTimeout(0); got != time.Millisecond {
		t.Fatalf("attempt 0 timeout = %v, want 1ms", got)
	}
	// Default backoff is 2x per attempt.
	if got := s.AttemptTimeout(2); got != 4*time.Millisecond {
		t.Fatalf("attempt 2 timeout = %v, want 4ms", got)
	}
	s = New(Spec{Timeout: d(time.Millisecond), Retries: 1, Backoff: 1}, 1)
	if got := s.AttemptTimeout(3); got != time.Millisecond {
		t.Fatalf("attempt 3 timeout with backoff 1 = %v, want 1ms", got)
	}
}

func TestWorkerStretchSelectsWorkers(t *testing.T) {
	sp := Spec{
		WorkerStall:  []Window{{Start: d(time.Millisecond), End: d(2 * time.Millisecond)}},
		StallWorkers: []int{1, 3},
	}
	s := New(sp, 1)
	if s.WorkerStretch(0) != nil || s.WorkerStretch(2) != nil {
		t.Fatal("unlisted workers got a stretch hook")
	}
	if s.WorkerStretch(1) == nil || s.WorkerStretch(3) == nil {
		t.Fatal("listed workers missing their stretch hook")
	}
	// An empty StallWorkers list stalls everyone.
	all := New(Spec{WorkerStall: sp.WorkerStall}, 1)
	if all.WorkerStretch(0) == nil || all.WorkerStretch(7) == nil {
		t.Fatal("empty stall_workers should stall every worker")
	}
}

func TestNICDownAndRecovery(t *testing.T) {
	s := New(validBase(), 1)
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	for _, c := range []struct {
		from, to int
		down     bool
		why      string
	}{
		{9, 9, false, "before the crash window"},
		{10, 10, true, "at crash start (window is half-open)"},
		{14, 14, false, "at crash end (window is half-open)"},
		{5, 10, true, "over an interval closed at crash start"},
		{14, 20, false, "over an interval after the window"},
		{11, 12, true, "inside the window"},
	} {
		if got := s.NICDown(ms(c.from), ms(c.to)); got != c.down {
			t.Errorf("NICDown(%d ms, %d ms) = %v %s", c.from, c.to, got, c.why)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.Empty() {
		t.Fatal("nil spec should be Empty")
	}
	z := &Spec{}
	if !z.Empty() {
		t.Fatal("zero spec should be Empty")
	}
	v := validBase()
	if (&v).Empty() {
		t.Fatal("populated spec should not be Empty")
	}
}
