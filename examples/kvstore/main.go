// KVS scenario: a key-value store with cheap GETs and expensive SCANs under
// a skewed (Zipf) key popularity distribution — the workload family where
// MICA-style key-affinity steering (Flow Director) shines for cache
// locality but collapses under skew (§2.1/§2.2 "load imbalance"), while an
// informed centralized scheduler stays balanced.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
)

func main() {
	// 95% GETs at 2µs, 5% SCANs at 50µs.
	workload := dist.NewMixture(
		[]float64{0.95, 0.05},
		[]dist.Distribution{
			dist.Fixed{D: 2 * time.Microsecond},
			dist.Fixed{D: 50 * time.Microsecond},
		},
	)
	const workers = 8
	const rps = 800_000

	fmt.Printf("KVS workload: %v, mean %v, offered %d krps on %d workers\n\n",
		workload, workload.Mean(), rps/1000, workers)

	// Both systems are declared as scenario specs and assembled through
	// the registry.
	flowDir := scenario.Spec{System: "flowdir", Knobs: &scenario.Knobs{Workers: workers}}
	offload := scenario.Spec{System: "offload", Knobs: &scenario.Knobs{
		Workers: workers, Outstanding: 4, Slice: scenario.Duration(10 * time.Microsecond)}}

	run := func(label string, sp scenario.Spec, skew float64) {
		factory, err := scenario.Build(sp)
		if err != nil {
			log.Fatal(err)
		}
		cfg := experiment.PointConfig{
			Factory:    factory,
			Service:    workload,
			OfferedRPS: rps,
			Warmup:     10_000,
			Measure:    80_000,
			Seed:       11,
		}
		if skew >= 0 {
			cfg.Keys = dist.NewZipfKeys(1024, skew)
		}
		r := experiment.RunPoint(cfg)
		sat := ""
		if r.Saturated {
			sat = "  (SATURATED)"
		}
		fmt.Printf("%-44s p50=%-10v p99=%-12v achieved=%.0f rps%s\n",
			label, r.P50, r.P99, r.AchievedRPS, sat)
	}

	fmt.Println("-- uniform key popularity (zipf s=0)")
	run("flow-director (key-affinity steering)", flowDir, 0)
	run("shinjuku-offload (informed NIC scheduler)", offload, 0)

	fmt.Println("\n-- skewed key popularity (zipf s=1.1)")
	run("flow-director (key-affinity steering)", flowDir, 1.1)
	run("shinjuku-offload (informed NIC scheduler)", offload, 1.1)

	fmt.Println("\nKey-affinity steering inherits the key skew as core imbalance; the")
	fmt.Println("centralized scheduler is immune because any worker can serve any key.")
}
