package sim_test

import (
	"fmt"
	"time"

	"mindgap/internal/sim"
)

// A minimal simulation: two events and a cancelled timer.
func Example() {
	eng := sim.New()
	eng.After(2*time.Microsecond, func() {
		fmt.Printf("second event at %v\n", eng.Now())
	})
	eng.After(1*time.Microsecond, func() {
		fmt.Printf("first event at %v\n", eng.Now())
	})
	var tm sim.Timer
	eng.ArmAfterE(&tm, 3*time.Microsecond, func(_, _ any, _ uint64) {
		fmt.Println("never printed")
	}, nil, nil, 0)
	tm.Stop()
	eng.Run()
	fmt.Printf("done at %v after %d events\n", eng.Now(), eng.Executed())
	// Output:
	// first event at 1µs
	// second event at 2µs
	// done at 2µs after 2 events
}
