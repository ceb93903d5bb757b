// Package loadgen implements the open-loop load generator of the paper's
// evaluation (§4: "an open loop load generator similar to mutilate that
// transmits requests over UDP"). Arrivals form a Poisson process at a fixed
// offered rate regardless of system state — the property that makes tail
// latency explode at saturation instead of politely backing off.
package loadgen

import (
	"math/rand/v2"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Config describes one client workload.
type Config struct {
	// RPS is the offered arrival rate in requests per second.
	RPS float64
	// Service is the fake-work service-time distribution (§4.1).
	Service dist.Distribution
	// Keys optionally samples an application key per request (used by
	// flow-steering baselines). The key is drawn from the same stream as
	// arrivals and service times, so setting Keys advances that stream
	// and moves every later draw. Nil leaves keys zero.
	Keys *dist.ZipfKeys
	// Seed makes the arrival and service streams reproducible.
	Seed uint64
	// MaxArrivals stops generation after this many requests (0 = run until
	// the engine halts).
	MaxArrivals uint64
	// ClientID is stamped on every request and is the high word of its
	// ID (a client numbers its requests from ClientID<<32 + 1), so the
	// streams of one run — a tenant mix — never share a request ID.
	ClientID uint32
	// Pool, when set, recycles Request objects: arrivals draw from it and
	// the harness returns each request at response time. Nil allocates a
	// fresh request per arrival.
	Pool *task.Pool
}

// Generator produces requests on a simulation engine and hands them to a
// sink (a System's Inject method), at their arrival instants once started
// or as a Source pulls them.
type Generator struct {
	// Counters holds the shared arrival accounting (Arrivals, Packets,
	// Flows accessors).
	Counters

	eng  *sim.Engine
	cfg  Config
	rng  *rand.Rand
	sink func(*task.Request)

	nextID uint64
	at     sim.Time // the next request's transmit instant
}

// New creates a generator. sink is called with each freshly built request,
// exactly at its Arrival instant once started.
func New(eng *sim.Engine, cfg Config, sink func(*task.Request)) *Generator {
	if cfg.RPS <= 0 {
		panic("loadgen: RPS must be positive")
	}
	if cfg.Service == nil {
		panic("loadgen: service distribution required")
	}
	if sink == nil {
		panic("loadgen: sink required")
	}
	return &Generator{
		eng:    eng,
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x6d696e64676170)), // "mindgap"
		sink:   sink,
		nextID: uint64(cfg.ClientID) << 32,
	}
}

// Start schedules the first arrival. Generation continues open-loop until
// MaxArrivals (if set) or until the engine halts.
func (g *Generator) Start() {
	g.at = g.eng.Now().Add(g.interarrival())
	g.eng.AtE(g.at, genArrive, g, nil, 0)
}

// genArrive fires at each arrival instant: emit the request and schedule
// the next arrival. Typed event + pooled request make the steady-state
// arrival path allocation-free.
//
//mindgap:noalloc
func genArrive(recv, _ any, _ uint64) {
	if g := recv.(*Generator); !g.exhausted() {
		g.emit()
		g.eng.AtE(g.at, genArrive, g, nil, 0)
	}
}

// exhausted reports whether the generator has sent MaxArrivals.
//
//mindgap:noalloc
func (g *Generator) exhausted() bool { return g.cfg.MaxArrivals > 0 && g.arrivals >= g.cfg.MaxArrivals }

// emit builds (or recycles) the request transmitted at g.at, draws the
// next gap — service, key, gap, however the generator is driven — and
// hands the request to the sink.
//
//mindgap:noalloc
func (g *Generator) emit() {
	g.nextID++
	g.arrivals++
	g.packets++
	var req *task.Request
	if g.cfg.Pool != nil {
		req = g.cfg.Pool.Get(g.nextID, g.at, g.cfg.Service.Sample(g.rng))
	} else {
		req = task.New(g.nextID, g.at, g.cfg.Service.Sample(g.rng))
	}
	req.ClientID = g.cfg.ClientID
	if g.cfg.Keys != nil {
		req.Key = g.cfg.Keys.Sample(g.rng)
	}
	g.at = g.at.Add(g.interarrival())
	g.sink(req)
}

// interarrival draws the next Poisson gap.
//
//mindgap:noalloc
func (g *Generator) interarrival() time.Duration {
	return expGap(g.rng, g.cfg.RPS)
}

// Source merges streams into the one arrival sequence a system pulls
// (scenario.System.Pull), filing no event: each Pull transmits the next
// request of the stream that sends first, ties to the lower index.
type Source []*Generator

// NewSource draws each stream's first gap from now.
func NewSource(gens ...*Generator) Source {
	for _, g := range gens {
		g.at = g.eng.Now().Add(g.interarrival())
	}
	return gens
}

// Pull transmits the earliest next request, if any stream has one left.
//
//mindgap:noalloc
func (s Source) Pull() {
	var next *Generator
	for _, g := range s {
		if !g.exhausted() && (next == nil || g.at < next.at) {
			next = g
		}
	}
	if next != nil {
		next.emit()
	}
}
