package faults

import (
	"bytes"
	"testing"
	"time"

	"mindgap/internal/sim"
)

// FuzzDecode guards the fault-spec parser: no input panics, any accepted
// input reaches a canonical encode fixed point, and any spec that both
// decodes and validates must compile into a Schedule without panicking —
// New's panic-on-invalid contract may only ever fire on specs Validate
// rejects.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"nic_crash":[{"start":"10ms","end":"14ms"}],"timeout":"1ms","retries":3,"degrade":true}`))
	f.Add([]byte(`{"nic_slow":[{"start":"1ms","end":"2ms"}],"nic_slow_factor":0.25}`))
	f.Add([]byte(`{"worker_stall":[{"start":0,"end":1000000}],"stall_workers":[0,2]}`))
	f.Add([]byte(`{"loss_rate":0.05,"loss_bursts":{"n":4,"horizon":"150ms","mean_len":"250µs"}}`))
	f.Add([]byte(`{"link_delay":[{"start":"1ms","end":"3ms"}],"delay_extra":"20µs","timeout":500000,"backoff":1.5}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return
		}
		enc1, err := sp.Encode()
		if err != nil {
			t.Fatalf("Encode after Decode failed: %v", err)
		}
		sp2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("Decode of canonical encoding failed: %v\n%s", err, enc1)
		}
		enc2, err := sp2.Encode()
		if err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
		if sp.Validate() != nil {
			return
		}
		s := New(sp, 7)
		// Exercise the compiled schedule's query surface a little: these
		// must hold for every valid spec.
		for _, at := range []time.Duration{0, time.Millisecond, time.Second} {
			if st := s.NICStretch(); st != nil {
				if got := st(sim.Time(at), time.Microsecond); got < time.Microsecond {
					t.Fatalf("NICStretch shrank work at %v: %v", at, got)
				}
			}
		}
		if s.AttemptTimeout(0) != sp.Timeout.D() {
			t.Fatalf("AttemptTimeout(0) = %v, want %v", s.AttemptTimeout(0), sp.Timeout.D())
		}
	})
}
