package experiment

import (
	"testing"
	"time"

	"mindgap/internal/params"
)

func multiTenantCfg(priority bool, q Quality) MultiTenantConfig {
	return MultiTenantConfig{
		P:           params.Default(),
		Workers:     4,
		Outstanding: 3,
		Slice:       15 * time.Microsecond,
		Priority:    priority,
		Tenants:     DefaultMultiTenant(q).Tenants,
		Quality:     q,
	}
}

func TestMultiTenantBothTenantsServed(t *testing.T) {
	res := RunMultiTenant(multiTenantCfg(false, Quality{Warmup: 1000, Measure: 8000, Seed: 7}))
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
	q := Quality{Warmup: 2000, Measure: 20000, Seed: 7}
	fifo := RunMultiTenant(multiTenantCfg(false, q))
	prio := RunMultiTenant(multiTenantCfg(true, q))
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

func TestMultiTenantValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty tenants accepted")
		}
	}()
	RunMultiTenant(MultiTenantConfig{P: params.Default(), Workers: 1, Quality: Quick})
}
