// Command mindgap-live runs the live mode: the same core.Logic scheduler
// and core.Recovery the simulator evaluates, with dispatcher, workers and an
// open-loop client exchanging UDP datagrams (§3.4.2). Each role is a
// subcommand with its own flags:
//
//	mindgap-live                          # loopback: all three roles in one process
//	mindgap-live dispatcher -listen 127.0.0.1:9000 -workers 4 -outstanding 5
//	mindgap-live worker -dispatcher 127.0.0.1:9000 -id 0 -workers 4 -slice 50µs
//	mindgap-live client -dispatcher 127.0.0.1:9000 -rps 20000 -n 100000 \
//	        -dist bimodal:0.995:5µs:100µs   # or -sweep 10000,20000,40000
//
// Start the dispatcher first: workers register with it at startup. The
// client prints one latency row per rate. The other roles keep their
// counters in one telemetry registry, printed as its /metrics text at exit
// (an interrupt, or loopback's client finishing), every -stats interval,
// and served over HTTP with -metrics (/metrics, /debug/vars as JSON).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/dist"
	"mindgap/internal/live"
	"mindgap/internal/scenario"
	"mindgap/internal/telemetry"
)

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// config holds every role's flags; a role registers the ones it takes.
type config struct {
	listen, dispatcher, policy, dist, sweep, metrics string
	workers, id, outstanding, n                      int
	slice, stats, timeout                            time.Duration
	rps                                              float64
	seed                                             uint64

	pol   core.Policy
	svc   dist.Distribution
	rates []float64
}

// run is main with its process edges passed in: args is os.Args and the
// result is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	role, rest := "loopback", args[1:]
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		role, rest = rest[0], rest[1:]
	}
	c := config{
		listen: "127.0.0.1:9000", dispatcher: "127.0.0.1:9000", policy: "least-outstanding",
		dist: "fixed:20µs", workers: 2, outstanding: 5, n: 50_000,
		timeout: 10 * time.Second, rps: 10_000, seed: 1,
	}
	fs := flag.NewFlagSet("mindgap-live "+role, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sched := func() {
		fs.IntVar(&c.outstanding, "outstanding", c.outstanding, "per-worker outstanding-request limit (queuing optimization)")
		fs.StringVar(&c.policy, "policy", c.policy, "worker selection: least-outstanding, round-robin")
	}
	workers := func() {
		fs.IntVar(&c.workers, "workers", c.workers, "worker count: the dispatcher's roster, or the workers this process runs")
	}
	slice := func() {
		fs.DurationVar(&c.slice, "slice", c.slice, "cooperative preemption quantum (0 = run to completion)")
	}
	metrics := func() {
		fs.StringVar(&c.metrics, "metrics", "", "HTTP address serving /metrics and /debug/vars (empty = off)")
	}
	load := func() {
		fs.Float64Var(&c.rps, "rps", c.rps, "offered load (requests per second)")
		fs.StringVar(&c.sweep, "sweep", "", "comma-separated list of rates to sweep (overrides -rps)")
		fs.IntVar(&c.n, "n", c.n, "total requests to send per rate")
		fs.StringVar(&c.dist, "dist", c.dist, "service-time distribution (see internal/dist.Parse)")
		fs.Uint64Var(&c.seed, "seed", c.seed, "workload RNG seed")
		fs.DurationVar(&c.timeout, "timeout", c.timeout, "straggler timeout after last send")
	}
	switch role {
	case "dispatcher":
		fs.StringVar(&c.listen, "listen", c.listen, "UDP address to listen on")
		workers()
		sched()
		fs.DurationVar(&c.stats, "stats", 5*time.Second, "stats print interval (0 = quiet)")
		metrics()
	case "worker":
		c.workers = 1
		fs.StringVar(&c.dispatcher, "dispatcher", c.dispatcher, "dispatcher UDP address")
		fs.IntVar(&c.id, "id", 0, "first worker ID")
		workers()
		slice()
		metrics()
	case "client":
		fs.StringVar(&c.dispatcher, "dispatcher", c.dispatcher, "dispatcher UDP address")
		load()
	case "loopback":
		c.listen, c.outstanding, c.slice = "127.0.0.1:0", 3, 100*time.Microsecond
		c.rps, c.n, c.dist, c.seed = 5_000, 3_000, "bimodal:0.97:30µs:500µs", 99
		workers()
		sched()
		slice()
		load()
		metrics()
	default:
		fmt.Fprintf(stderr, "mindgap-live: unknown role %q (want dispatcher, worker, client or loopback)\n", role)
		return 2
	}
	if err := fs.Parse(rest); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := c.parse(fs.Args()); err != nil {
		fmt.Fprintf(stderr, "mindgap-live %s: %v\n", role, err)
		return 2
	}
	if err := c.run(role, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "mindgap-live %s: %v\n", role, err)
		return 1
	}
	return 0
}

// parse checks what the flag package cannot: the policy, the service
// distribution and the rates.
func (c *config) parse(extra []string) (err error) {
	if len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q", extra)
	}
	if c.pol, err = scenario.ParsePolicy(c.policy); err != nil {
		return err
	}
	if c.pol == core.InformedLeastLoaded {
		return fmt.Errorf("policy %s needs load reports, which live workers do not send", c.pol)
	}
	if c.svc, err = dist.Parse(c.dist); err != nil {
		return err
	}
	c.rates = []float64{c.rps}
	if c.sweep != "" {
		c.rates = c.rates[:0]
		for _, f := range strings.Split(c.sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("bad sweep rate %q", f)
			}
			c.rates = append(c.rates, r)
		}
	}
	return nil
}

// run starts role's sockets, registers their counters and serves them
// until the role is done, then prints the registry's totals.
func (c *config) run(role string, stdout, stderr io.Writer) error {
	reg := telemetry.NewRegistry()
	if c.metrics != "" {
		ms, err := live.ServeMetrics(c.metrics, reg)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintf(stderr, "mindgap-live: metrics on %s/metrics\n", ms.URL())
	}
	// Room for every serve loop's result, so none blocks after run returns.
	failed := make(chan error, 1+c.workers)
	serve := func(s interface{ Serve() error }) { go func() { failed <- s.Serve() }() }

	var addr *net.UDPAddr
	if role == "dispatcher" || role == "loopback" {
		d, err := live.NewDispatcher(c.listen, live.DispatcherConfig{Workers: c.workers, Outstanding: c.outstanding, Policy: c.pol})
		if err != nil {
			return err
		}
		defer d.Close()
		addr = d.Addr()
		d.RegisterMetrics(reg)
		serve(d)
		fmt.Fprintf(stderr, "mindgap-live: dispatcher on %v, expecting %d workers (k=%d, %v)\n", addr, c.workers, c.outstanding, c.pol)
	} else if a, err := net.ResolveUDPAddr("udp4", c.dispatcher); err != nil {
		return fmt.Errorf("resolve dispatcher: %w", err)
	} else {
		addr = a
	}
	if role == "worker" || role == "loopback" {
		for i := c.id; i < c.id+c.workers; i++ {
			w, err := live.NewWorker(live.WorkerConfig{ID: uint32(i), Dispatcher: addr, Slice: c.slice})
			if err != nil {
				return fmt.Errorf("worker %d: %w", i, err)
			}
			defer w.Close()
			w.RegisterMetrics(reg)
			serve(w)
			fmt.Fprintf(stderr, "mindgap-live: worker %d on %v (slice %v)\n", i, w.Addr(), c.slice)
		}
	}

	switch role {
	case "client", "loopback":
		if err := c.client(addr, stdout); err != nil {
			return err
		}
		// Workers answer the client before they notify the dispatcher, so
		// its counters trail the client's by the FINISHes still in flight.
		for end := time.Now().Add(time.Second); reg.Snapshot().Gauges["dispatcher/inflight"] > 0 && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		tick := time.Tick(c.stats) // nil, never ready, at -stats 0
		for ctx.Err() == nil {
			select {
			case <-tick:
				_ = reg.Snapshot().WriteText(stderr)
			case err := <-failed:
				return err
			case <-ctx.Done():
			}
		}
	}
	return reg.Snapshot().WriteText(stdout)
}

// client drives one open-loop run per rate and prints its latency row.
func (c *config) client(addr *net.UDPAddr, stdout io.Writer) error {
	fmt.Fprintf(stdout, "%12s %9s %9s %12s %12s %12s %12s\n",
		"offered", "sent", "recv", "achieved", "p50", "p99", "max")
	for i, rate := range c.rates {
		rep, err := live.RunClient(live.ClientConfig{
			Dispatcher: addr, RPS: rate, Service: c.svc, Requests: c.n,
			Seed: c.seed + uint64(i), Timeout: c.timeout,
		})
		if err != nil {
			return err
		}
		loss := ""
		if rep.Received < rep.Sent {
			loss = fmt.Sprintf("  (%d lost)", rep.Sent-rep.Received)
		}
		fmt.Fprintf(stdout, "%12.0f %9d %9d %12.0f %12v %12v %12v%s\n",
			rate, rep.Sent, rep.Received, rep.AchievedRPS,
			rep.Latency.P50(), rep.Latency.P99(), rep.Latency.Max(), loss)
	}
	return nil
}
