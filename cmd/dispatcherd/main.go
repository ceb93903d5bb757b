// Command dispatcherd runs the live mindgap dispatcher: the centralized,
// informed scheduler (internal/core.Logic) behind a UDP socket, playing the
// role the paper offloads to the SmartNIC ARM cores.
//
// Usage:
//
//	dispatcherd -listen 127.0.0.1:9000 -workers 4 -outstanding 5
//
// Then start `workerd` processes and drive load with `loadgen`.
//
// With -metrics the scheduler's telemetry registry is served over HTTP:
// `curl http://127.0.0.1:9090/metrics` (plain text) or `/debug/vars`
// (JSON snapshot).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/live"
	"mindgap/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:9000", "UDP address to listen on")
		workers     = flag.Int("workers", 2, "number of workers that will register")
		outstanding = flag.Int("outstanding", 5, "per-worker outstanding-request limit (queuing optimization)")
		policy      = flag.String("policy", "least-outstanding", "worker selection: least-outstanding, round-robin")
		statsEvery  = flag.Duration("stats", 5*time.Second, "stats print interval (0 = quiet)")
		metricsAddr = flag.String("metrics", "", "HTTP address serving /metrics and /debug/vars (empty = off)")
	)
	flag.Parse()

	pol, ok := map[string]core.Policy{
		"least-outstanding": core.LeastOutstanding, "round-robin": core.RoundRobin,
	}[*policy]
	if !ok {
		fmt.Fprintf(os.Stderr, "dispatcherd: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	d, err := live.NewDispatcher(*listen, live.DispatcherConfig{
		Workers:     *workers,
		Outstanding: *outstanding,
		Policy:      pol,
	})
	if err != nil {
		log.Fatalf("dispatcherd: %v", err)
	}
	log.Printf("dispatcherd: listening on %v, expecting %d workers (k=%d, %v)",
		d.Addr(), *workers, *outstanding, pol)

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		d.RegisterMetrics(reg)
		ms, err := live.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("dispatcherd: %v", err)
		}
		defer ms.Close()
		log.Printf("dispatcherd: metrics on %s/metrics", ms.URL())
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				a, c, p, q := d.Stats()
				log.Printf("dispatcherd: assigned=%d completed=%d preempted=%d queued=%d", a, c, p, q)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- d.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		log.Print("dispatcherd: shutting down")
		_ = d.Close()
	case err := <-errCh:
		if err != nil {
			log.Fatalf("dispatcherd: %v", err)
		}
	}
}
