package loadgen

import (
	"math/rand/v2"
	"time"
)

// Counters is the arrival accounting shared by every generator in this
// package. Both the open-loop request generator and the flow generator
// embed it, so callers read one accessor set instead of per-generator
// ad-hoc getters.
type Counters struct {
	arrivals uint64 // requests handed to the sink
	packets  uint64 // wire packets those requests stand for
	flows    uint64 // flows started (zero for i.i.d. request streams)
}

// Arrivals returns the number of requests generated so far.
func (c *Counters) Arrivals() uint64 { return c.arrivals }

// Packets returns the number of wire packets generated so far. For the
// plain request generator this equals Arrivals; for the flow generator
// each request is a batch and carries its packet count.
func (c *Counters) Packets() uint64 { return c.packets }

// Flows returns the number of flows started so far (zero for
// generators without flow identity).
func (c *Counters) Flows() uint64 { return c.flows }

// expGap draws one exponential inter-arrival gap for a Poisson process
// at the given rate — the sampling step both generators share.
//
//mindgap:noalloc
func expGap(rng *rand.Rand, rps float64) time.Duration {
	mean := float64(time.Second) / rps
	d := time.Duration(rng.ExpFloat64() * mean)
	if d <= 0 {
		d = 1
	}
	return d
}
