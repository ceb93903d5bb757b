// FaaS scenario: the paper's introduction motivates NIC scheduling with
// highly-variable workloads like function-as-a-service frameworks (§1).
// This example co-locates three latency classes on one server — short API
// functions, medium data transforms, and long batch functions — and
// measures *per-class* tail latency under each §2.1 scheduling
// architecture.
//
// Expected outcome (the paper's §2.2 argument): without preemption, the
// batch class head-of-line blocks the API class and its tail explodes;
// centralized preemptive scheduling keeps the API class fast at the price
// of stretching the (latency-insensitive) batch class.
//
//	go run ./examples/faas
package main

import (
	"fmt"
	"log"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// Class thresholds on the sampled service time.
const (
	apiMax       = 15 * time.Microsecond
	transformMax = 250 * time.Microsecond
)

func classify(svc time.Duration) int {
	switch {
	case svc < apiMax:
		return 0
	case svc < transformMax:
		return 1
	default:
		return 2
	}
}

var classNames = [3]string{"api(µs)", "transform(10µs)", "batch(ms)"}

func main() {
	workload := dist.NewMixture(
		[]float64{0.80, 0.18, 0.02},
		[]dist.Distribution{
			dist.Exponential{M: 3 * time.Microsecond},                             // API handlers
			dist.Exponential{M: 40 * time.Microsecond},                            // transforms
			dist.Uniform{Lo: 300 * time.Microsecond, Hi: 1200 * time.Microsecond}, // batch
		},
	)
	const workers = 8
	const rps = 220_000 // ρ ≈ 0.68 on 8 workers
	slice := scenario.Duration(15 * time.Microsecond)

	fmt.Printf("workload: %v (mean %v), %d krps on %d host cores\n\n",
		workload, workload.Mean(), rps/1000, workers)

	// Every system is declared as a scenario spec and assembled through
	// the registry.
	configs := []struct {
		label string
		spec  scenario.Spec
	}{
		{"shinjuku-offload (preemptive, NIC)",
			scenario.Spec{System: "offload", Knobs: &scenario.Knobs{Workers: workers, Outstanding: 4, Slice: slice}}},
		{"shinjuku (preemptive, host core)",
			scenario.Spec{System: "shinjuku", Knobs: &scenario.Knobs{Workers: workers - 1, Slice: slice}}},
		{"rpcvalet (central, no preempt)",
			scenario.Spec{System: "rpcvalet", Knobs: &scenario.Knobs{Workers: workers}}},
		{"zygos (stealing, no preempt)",
			scenario.Spec{System: "zygos", Knobs: &scenario.Knobs{Workers: workers}}},
		{"rss/ix (static, no preempt)",
			scenario.Spec{System: "rss", Knobs: &scenario.Knobs{Workers: workers}}},
	}

	fmt.Printf("%-36s %14s %14s %14s\n",
		"p99 per class →", classNames[0], classNames[1], classNames[2])
	for _, c := range configs {
		factory, err := scenario.Build(c.spec)
		if err != nil {
			log.Fatal(err)
		}
		perClass := measure(factory, workload, rps)
		fmt.Printf("%-36s %14v %14v %14v\n",
			c.label, perClass[0].P99(), perClass[1].P99(), perClass[2].P99())
	}
	fmt.Println("\nPreemptive systems hold the API class near its µs-scale service time;")
	fmt.Println("run-to-completion systems let millisecond batch functions block it")
	fmt.Println("(§2.2 problem 2). The batch class pays for its own preemptions — the")
	fmt.Println("processor-sharing trade the paper cites from Wierman & Zwart.")
}

// measure runs one system and returns per-class latency histograms.
func measure(factory scenario.Factory, svc dist.Distribution, rps float64) [3]*stats.Histogram {
	eng := sim.New()
	var hist [3]*stats.Histogram
	for i := range hist {
		hist[i] = &stats.Histogram{}
	}
	const warmup, measure = 10_000, 80_000
	completions := 0
	var sys scenario.System
	sys = factory(eng, nil, func(r *task.Request) {
		completions++
		if completions <= warmup {
			return
		}
		hist[classify(r.Service)].Record(r.Latency(eng.Now()))
		if completions >= warmup+measure {
			eng.Halt()
		}
	})
	loadgen.New(eng, loadgen.Config{RPS: rps, Service: svc, Seed: 7}, sys.Inject).Start()
	eng.Run()
	return hist
}
