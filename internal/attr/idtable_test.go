package attr

import (
	"math/rand"
	"testing"
)

// TestIDTableMatchesMap drives the open-addressing table and a Go map
// through the same random open/close sequences — consecutive IDs, tenant
// IDs (i<<32 + n), closes of IDs never opened, and IDs reopened after a
// close, as a retry reuses its original's ID — and requires them to agree
// on every lookup and removal.
func TestIDTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab idTable
		tab.grow()
		ref := map[uint64]*reqState{}
		var next [4]uint64 // per-tenant sequence numbers
		var closed []uint64
		for op := 0; op < 20_000; op++ {
			var id uint64
			switch r := rng.Intn(10); {
			case r < 4: // a fresh arrival from one of four tenants
				tenant := rng.Intn(len(next))
				id = uint64(tenant)<<32 + next[tenant]
				next[tenant]++
			case r < 5 && len(closed) > 0: // a retry reuses a closed ID
				id = closed[rng.Intn(len(closed))]
			default: // close, or look up, something open or never seen
				tenant := rng.Intn(len(next))
				id = uint64(tenant)<<32 + uint64(rng.Int63n(int64(next[tenant])+2))
			}
			if got, want := tab.get(id), ref[id]; got != want {
				t.Fatalf("seed %d op %d: get(%#x) = %p, map %p", seed, op, id, got, want)
			}
			if ref[id] == nil && rng.Intn(3) > 0 {
				st := &reqState{id: id}
				tab.put(id, st)
				ref[id] = st
				continue
			}
			if got, want := tab.del(id), ref[id]; got != want {
				t.Fatalf("seed %d op %d: del(%#x) = %p, map %p", seed, op, id, got, want)
			}
			if ref[id] != nil {
				closed = append(closed, id)
			}
			delete(ref, id)
			if tab.n != len(ref) {
				t.Fatalf("seed %d op %d: table holds %d records, map %d", seed, op, tab.n, len(ref))
			}
		}
		for id, want := range ref {
			if got := tab.get(id); got != want {
				t.Fatalf("seed %d at the end: get(%#x) = %p, map %p", seed, id, got, want)
			}
		}
		if 2*tab.n > len(tab.slots) {
			t.Fatalf("seed %d: %d records in %d slots, over half full", seed, tab.n, len(tab.slots))
		}
	}
}
