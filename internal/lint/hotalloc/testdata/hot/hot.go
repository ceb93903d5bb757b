// Fixtures for the //mindgap:noalloc discipline: closure-scheduling
// APIs, capturing closures, fmt, string conversions, and interface
// boxing are all rejected inside annotated functions.
package core

import (
	"fmt"

	"mindgap/internal/sim"
)

//mindgap:noalloc
func hotClosure(eng *sim.Engine) {
	eng.After(0, func() {}) // want `After schedules a closure and allocates; use the typed AfterE form \(annotated //mindgap:noalloc\)`
}

//mindgap:noalloc
func hotCapture(eng *sim.Engine, n int) {
	eng.At(eng.Now(), func() { _ = n }) // want `At schedules a closure and allocates; use the typed AtE form \(annotated //mindgap:noalloc\)` `closure captures n and allocates per event; use a typed EventFunc with recv/obj/arg \(annotated //mindgap:noalloc\)`
}

//mindgap:noalloc
func hotFmt(id uint64) {
	fmt.Println("req", id) // want `fmt\.Println allocates on every call \(annotated //mindgap:noalloc\)`
}

//mindgap:noalloc
func hotString(b []byte) string {
	return string(b) // want `conversion to string allocates \(annotated //mindgap:noalloc\)`
}

// hotTyped is the sanctioned shape: typed events, scalar args, pointer
// payloads. No diagnostics.
//
//mindgap:noalloc
func hotTyped(eng *sim.Engine, id uint64) {
	eng.AfterE(0, fire, eng, nil, id)
}

func fire(_, _ any, _ uint64) {}

// hotRelay registers its callback through the relay form: typed like the
// rest, so the call itself is clean and the callback joins the path.
//
//mindgap:noalloc
func hotRelay(eng *sim.Engine, id uint64) {
	eng.AtRelayE(eng.Now(), eng.Now()+1, relayed, eng, nil, id)
}

func relayed(_, _ any, id uint64) {
	fmt.Println("req", id) // want `fmt\.Println allocates on every call \(on the //mindgap:noalloc path via hotRelay\)`
}

// coldPath is not annotated and not reachable from any annotated
// function: the closure API is fine here (it is how setup code works).
func coldPath(eng *sim.Engine) {
	eng.After(0, func() {})
}
