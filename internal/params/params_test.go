package params

import (
	"testing"
	"time"
)

func TestCyclesToDuration(t *testing.T) {
	host := Clock{Hz: 2.3e9}
	cases := []struct {
		cycles float64
		want   time.Duration
	}{
		{0, 0},
		{2.3e9, time.Second},
		{40, 17 * time.Nanosecond},    // §3.4.4 direct APIC arm: 40 cycles ≈ 17 ns
		{610, 265 * time.Nanosecond},  // Linux timer arm
		{1272, 553 * time.Nanosecond}, // posted interrupt receive
		{4193, 1823 * time.Nanosecond},
	}
	for _, c := range cases {
		if got := host.CyclesToDuration(c.cycles); got != c.want {
			t.Errorf("CyclesToDuration(%v) = %v, want %v", c.cycles, got, c.want)
		}
	}
}

func TestZeroClockIsSafe(t *testing.T) {
	var c Clock
	if got := c.CyclesToDuration(1000); got != 0 {
		t.Fatalf("zero clock returned %v, want 0", got)
	}
}

func TestPaperConstants(t *testing.T) {
	p := Default()
	if p.NicHostOneWay != 2560*time.Nanosecond {
		t.Errorf("NicHostOneWay = %v, want 2.56µs (§3.3)", p.NicHostOneWay)
	}
	// 200 ns dispatch cost ⇒ 5 M req/s dispatcher capacity (§1).
	if got := time.Second / p.HostDispatchCost; got != 5_000_000 {
		t.Errorf("host dispatcher capacity = %d req/s, want 5M", got)
	}
	if LinuxTimer.ArmCycles != 610 || DirectAPIC.ArmCycles != 40 {
		t.Error("timer arm cycle constants do not match §3.4.4")
	}
	if LinuxTimer.FireCycles != 4193 || DirectAPIC.FireCycles != 1272 {
		t.Error("timer fire cycle constants do not match §3.4.4")
	}
}

func TestTimerCostReductions(t *testing.T) {
	// §3.4.4: direct APIC reduces timer-set cost by 93% and interrupt
	// receipt cost by 70%.
	setReduction := 1 - DirectAPIC.ArmCycles/LinuxTimer.ArmCycles
	if setReduction < 0.92 || setReduction > 0.94 {
		t.Errorf("timer set reduction = %.2f, want ≈0.93", setReduction)
	}
	fireReduction := 1 - DirectAPIC.FireCycles/LinuxTimer.FireCycles
	if fireReduction < 0.69 || fireReduction > 0.71 {
		t.Errorf("interrupt receipt reduction = %.2f, want ≈0.70", fireReduction)
	}
}

func TestArmStageMax(t *testing.T) {
	p := Default()
	// With the default calibration the queue-manager core is the
	// bottleneck: it sees each request twice (admit + credit release).
	if got, want := p.ArmStageMax(), p.ArmQueueCost+p.ArmCreditCost; got != want {
		t.Fatalf("ArmStageMax = %v, want %v", got, want)
	}
	// The calibrated offload dispatcher cap should land in the 1.3–1.6M
	// req/s band implied by Figures 3 and 6.
	cap := float64(time.Second) / float64(p.ArmStageMax())
	if cap < 1.2e6 || cap > 1.7e6 {
		t.Errorf("offload dispatcher cap = %.0f req/s, want ≈1.4M", cap)
	}
}

func TestFrameWireTime(t *testing.T) {
	p := Default()
	// 128 B at 10 Gb/s = 102.4 ns.
	got := p.FrameWireTime(128)
	if got < 102*time.Nanosecond || got > 103*time.Nanosecond {
		t.Fatalf("FrameWireTime(128) = %v, want ≈102ns", got)
	}
	var zero Params
	if zero.FrameWireTime(128) != 0 {
		t.Fatal("zero-bandwidth params should yield zero wire time")
	}
}
