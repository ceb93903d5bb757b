package experiment

import (
	"context"
	"reflect"
	"testing"

	"mindgap/internal/runner"
	"mindgap/scenarios"
)

// attrTestQuality keeps the attribution tests cheap enough to run under
// the race detector in short mode while still completing thousands of
// requests per point.
var attrTestQuality = Quality{Warmup: 300, Measure: 1500, Seed: 7}

// TestAttributionObservationInvariance is the observer contract: attaching
// a collector must not change the measurement. Every series of the
// attribution preset is run twice from identical configurations — once
// plain, once with a collector attached — and the conventional Result
// (latency percentiles, throughput, completion counts) must be deeply
// equal. Any divergence means an attribution hook scheduled an event or
// perturbed an RNG stream.
func TestAttributionObservationInvariance(t *testing.T) {
	p := scenarios.MustLoad("table-attribution")
	for i := range p.Series {
		sp := p.SpecFor(i)
		t.Run(sp.Name, func(t *testing.T) {
			attributed, err := SpecSeries("", sp.Name, sp, attrTestQuality, Attributed)
			if err != nil {
				t.Fatal(err)
			}
			if len(attributed.Points) == 0 {
				t.Fatal("preset series has no load points")
			}
			row := attributed.Points[0].Run()

			loads, err := SpecLoads(sp)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := PointConfigFor(sp, attrTestQuality)
			if err != nil {
				t.Fatal(err)
			}
			cfg.OfferedRPS = loads[0]
			plain := RunPoint(cfg)

			if !reflect.DeepEqual(row.Result, plain) {
				t.Errorf("attaching the collector changed the measurement\nwith:    %+v\nwithout: %+v",
					row.Result, plain)
			}
			if row.Audit.Decisions == 0 {
				t.Error("collector audited no dispatch decisions")
			}
			if len(row.Phases) == 0 {
				t.Error("collector produced no phase rows")
			}
		})
	}
}

// TestAttributionParallelismIndependent pins the determinism contract for
// the attribution table: per-point collectors are created inside each
// point run and never shared, so the full table must be deeply equal at
// -j1 and -j4 (CI runs this under -race, where sharing would also trip
// the detector).
func TestAttributionParallelismIndependent(t *testing.T) {
	run := func(par int) []AttributionRow {
		t.Helper()
		res, err := Run(context.Background(), &runner.Runner{Parallelism: par},
			scenarios.MustLoad("table-attribution"), attrTestQuality, Attributed)
		if err != nil {
			t.Fatal(err)
		}
		return Rows(res)
	}
	j1 := run(1)
	j4 := run(4)
	if !reflect.DeepEqual(j1, j4) {
		t.Errorf("attribution table differs between -j1 and -j4\nj1: %+v\nj4: %+v", j1, j4)
	}
	if len(j1) != 3 {
		t.Fatalf("attribution table has %d rows, want 3", len(j1))
	}
}

// TestAttributionHostQueueCollapse asserts the table's headline claim at
// test quality: the host-queue share of tail latency is strictly lower
// under informed offload than under blind RSS steering.
func TestAttributionHostQueueCollapse(t *testing.T) {
	res, err := Run(context.Background(), &runner.Runner{Parallelism: 4},
		scenarios.MustLoad("table-attribution"), attrTestQuality, Attributed)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res)
	byLabel := map[string]AttributionRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	off, ok := byLabel["shinjuku-offload"]
	if !ok {
		t.Fatal("missing shinjuku-offload row")
	}
	rss, ok := byLabel["rss"]
	if !ok {
		t.Fatal("missing rss row")
	}
	if off.HostQueueTailShare() >= rss.HostQueueTailShare() {
		t.Errorf("host-queue tail share: offload %.3f, rss %.3f — want offload strictly lower",
			off.HostQueueTailShare(), rss.HostQueueTailShare())
	}
	if off.Audit.Informed == 0 {
		t.Error("offload row recorded no informed decisions")
	}
	if rss.Audit.Informed != 0 {
		t.Errorf("rss row recorded %d informed decisions, want 0 (hash steering holds no estimate)",
			rss.Audit.Informed)
	}
}
