package experiment

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// tenantMix measures the checked-in X9 mix and returns its two rows: the
// tenants on one shared FIFO, then under strict class priority.
func tenantMix(t *testing.T, q Quality) (fifo, prio []TenantResult) {
	t.Helper()
	res, err := Run(context.Background(), nil, scenarios.MustLoad("table-tenants"), q, TenantMix)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res)
	if len(rows) != 2 || rows[0][0].Sched != "fifo" || rows[1][0].Sched != "priority" {
		t.Fatalf("rows = %+v, want a fifo and a priority profile", rows)
	}
	return rows[0], rows[1]
}

func TestMultiTenantBothTenantsServed(t *testing.T) {
	res, _ := tenantMix(t, Quality{Warmup: 1000, Measure: 8000, Seed: 7})
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Completed == 0 {
			t.Fatalf("tenant %q starved entirely", r.Tenant.Name)
		}
		if r.P99 <= 0 {
			t.Fatalf("tenant %q has no latency profile", r.Tenant.Name)
		}
	}
	// The critical tenant sends ~37× the batch tenant's rate.
	if res[0].Completed < 10*res[1].Completed {
		t.Fatalf("completion mix off: %d vs %d", res[0].Completed, res[1].Completed)
	}
}

func TestMultiTenantPriorityProtectsCriticalClass(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	fifo, prio := tenantMix(t, Quality{Warmup: 2000, Measure: 20000, Seed: 7})
	// With strict priority, the critical tenant's p99 must improve
	// substantially over single-FIFO scheduling...
	if prio[0].P99 >= fifo[0].P99 {
		t.Fatalf("priority did not help critical tenant: %v vs %v", prio[0].P99, fifo[0].P99)
	}
	// ...while the batch tenant still completes its work.
	if prio[1].Completed == 0 {
		t.Fatal("batch tenant starved under priority scheduling")
	}
}

// fifoMix is a two-series mix whose tenants all sit in class 0.
func fifoMix() scenario.Preset {
	tenants := []scenario.TenantSpec{
		{Name: "short", RPS: 100_000, Workload: "fixed:2µs"},
		{Name: "long", RPS: 5_000, Workload: "fixed:50µs"},
	}
	return scenario.Preset{ID: "fifo-mix", Series: []scenario.SeriesSpec{
		{Label: "offload", Spec: scenario.Spec{System: "offload", Tenants: tenants,
			Knobs: &scenario.Knobs{Workers: 2, Outstanding: 2}}},
		{Label: "rss", Spec: scenario.Spec{System: "rss", Tenants: tenants,
			Knobs: &scenario.Knobs{Workers: 2}}},
	}}
}

// TestFIFOMixMeasuredOnce: a mix with no class above 0 is its own FIFO
// baseline, so each series yields one profile, one row per tenant.
func TestFIFOMixMeasuredOnce(t *testing.T) {
	res, err := Run(context.Background(), nil, fifoMix(), testQuality, TenantMix)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res {
		if len(sr.Results) != 1 || len(sr.Results[0]) != 2 || sr.Results[0][0].Sched != "fifo" {
			t.Errorf("series %s: rows %+v, want one fifo profile of 2 tenants", sr.Label, sr.Results)
		}
	}
}

// TestRenderedMixRowsNameTheirSeries: each tenant line of a rendered
// multi-series mix starts with its own series' label.
func TestRenderedMixRowsNameTheirSeries(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderPreset(context.Background(), nil, fifoMix(), testQuality, &buf, CSV); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	want := []string{"offload,", "offload,", "rss,", "rss,"}
	if len(lines) != len(want) {
		t.Fatalf("%d tenant lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, want[i]) {
			t.Errorf("line %d %q does not start with %q", i, l, want[i])
		}
	}
}

// TestRenderedMixQuotesFields: a series label or tenant name holding a
// comma is quoted, so every rendered tenant line still parses as the
// row's seven fields; a plain one is not.
func TestRenderedMixQuotesFields(t *testing.T) {
	p := fifoMix()
	p.Series[0].Label = "offload (2 workers, k=2)"
	p.Series[0].Tenants = append([]scenario.TenantSpec(nil), p.Series[0].Tenants...)
	p.Series[0].Tenants[0].Name = "short, cached"
	var buf bytes.Buffer
	if err := RenderPreset(context.Background(), nil, p, testQuality, &buf, CSV); err != nil {
		t.Fatal(err)
	}
	body := buf.String()[strings.Index(buf.String(), "\n")+1:]
	rows, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatalf("%v:\n%s", err, buf.String())
	}
	want := [][2]string{{p.Series[0].Label, "short, cached"}, {p.Series[0].Label, "long"}, {"rss", "short"}, {"rss", "long"}}
	if len(rows) != len(want) {
		t.Fatalf("%d tenant rows, want %d:\n%s", len(rows), len(want), buf.String())
	}
	for i, r := range rows {
		if len(r) != 7 || r[0] != want[i][0] || r[2] != want[i][1] {
			t.Errorf("row %d = %q, want 7 fields led by %q with tenant %q", i, r, want[i][0], want[i][1])
		}
	}
	if !strings.Contains(body, "\nrss,fifo,short,") {
		t.Errorf("a plain label or tenant name was quoted:\n%s", body)
	}
}

// TestMultiTenantValidation checks an empty tenant list is refused: the
// series then declares no workload at all, and a mix of nothing has no
// rows to profile.
func TestMultiTenantValidation(t *testing.T) {
	p := scenarios.MustLoad("table-tenants") // a fresh decode: safe to edit
	p.Series[0].Tenants = nil
	if err := p.Validate(); err == nil {
		t.Fatal("empty tenants accepted")
	}
	p.Series[0].Workload, p.Series[0].Load = "fixed:2µs", &scenario.LoadSpec{RPS: 1000}
	res, err := Run(context.Background(), nil, p, Quick, TenantMix)
	if err != nil {
		t.Fatal(err)
	}
	if rows := Rows(res); len(rows) != 0 {
		t.Fatalf("a series without tenants produced %d tenant-mix rows", len(rows))
	}
}

// TestMultiTenantUnderFaults runs the X9 mix under each checked-in fault
// block. Each tenant numbers its requests from its own ClientID<<32, so
// the fault layer's per-ID recovery records never collide across tenants:
// every tenant completes work in both rows, and the rows are identical at
// -j1 and -j4.
func TestMultiTenantUnderFaults(t *testing.T) {
	for _, id := range []string{"figure-faults-lossyfabric", "figure-faults-niccrash"} {
		t.Run(id, func(t *testing.T) {
			p := scenarios.MustLoad("table-tenants")
			p.Series[0].Seed = 7
			p.Series[0].Faults = scenarios.MustLoad(id).SpecFor(1).Faults
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			rows := func(par int) [][]TenantResult {
				res, err := Run(context.Background(), &runner.Runner{Parallelism: par}, p,
					Quality{Warmup: 1000, Measure: 8000, Seed: 7}, TenantMix)
				if err != nil {
					t.Fatal(err)
				}
				return Rows(res)
			}
			j1 := rows(1)
			if len(j1) != 2 {
				t.Fatalf("rows = %d, want a fifo and a priority profile", len(j1))
			}
			for _, row := range j1 {
				for _, r := range row {
					if r.Completed == 0 {
						t.Errorf("%s: tenant %q completed nothing", r.Sched, r.Tenant.Name)
					}
				}
			}
			if j4 := rows(4); !reflect.DeepEqual(j1, j4) {
				t.Errorf("-j1 rows %+v differ from -j4 rows %+v", j1, j4)
			}
		})
	}
}
