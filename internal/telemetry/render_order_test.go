package telemetry

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// renderSeriesTable emits a registry's gauges the way a results consumer
// does: the snapshot as text. The registry keeps its metrics in maps, so
// this is the emission path maporder guards — rows in map-iteration order
// would make the table's order random per process.
func renderSeriesTable() []byte {
	reg := NewRegistry()
	for i := 0; i < 16; i++ {
		v := float64(i)
		reg.GaugeFunc(fmt.Sprintf("comp%02d", i), "depth", func() float64 { return v })
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestSeriesTableBytesAcrossGOMAXPROCS is the regression gate for the
// maporder fix: the rendered table must be byte-identical run after
// run, at GOMAXPROCS=1 and GOMAXPROCS=4 alike. Map iteration order is
// re-randomized every execution, so the repeated renders (not just the
// GOMAXPROCS flip) are what catch an unsorted emission creeping back.
func TestSeriesTableBytesAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	want := renderSeriesTable()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 8; i++ {
			if got := renderSeriesTable(); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d render %d differs from baseline:\n got: %q\nwant: %q", procs, i, got, want)
			}
		}
	}
}
