// Package scenarios holds the checked-in scenario presets: every figure,
// table, and traced example of the paper reproduction as declarative JSON
// (see internal/scenario). The files are embedded so the experiment
// harness and mindgap-sim resolve preset names without caring where the
// binary runs.
//
// Files are canonical: for every preset,
// scenario.DecodePreset(file).Encode() reproduces the file byte for
// byte (enforced by TestPresetsAreCanonical), so diffs stay minimal and
// spec fingerprints are stable.
package scenarios

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"

	"mindgap/internal/scenario"
)

//go:embed *.json
var files embed.FS

// Names returns every embedded preset name (without the .json suffix),
// sorted.
func Names() []string {
	ents, err := files.ReadDir(".")
	if err != nil {
		// The embedded FS root always reads; guard for completeness.
		return nil
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		out = append(out, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(out)
	return out
}

// Raw returns the canonical bytes of a preset.
func Raw(name string) ([]byte, error) {
	b, err := files.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenarios: unknown preset %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Load decodes and validates a preset by name.
func Load(name string) (scenario.Preset, error) {
	b, err := Raw(name)
	if err != nil {
		return scenario.Preset{}, err
	}
	p, err := scenario.DecodePreset(b)
	if err != nil {
		return scenario.Preset{}, fmt.Errorf("scenarios: preset %q: %w", name, err)
	}
	if err := p.Validate(); err != nil {
		return scenario.Preset{}, err
	}
	return p, nil
}

// LoadArg resolves a command-line argument that names a checked-in JSON
// document or a file of the same schema: the path of an existing file is
// decoded with decode (the caller validates), anything else is handed to
// embedded as a name, with or without its .json suffix. Scenario presets
// (scenario.DecodeAny, Load) and hypothesis specs (hypothesis.Decode,
// hypotheses.Load) both resolve through it.
func LoadArg[T any](arg string, decode func([]byte) (T, error), embedded func(name string) (T, error)) (T, error) {
	if b, err := os.ReadFile(arg); err == nil {
		return decode(b)
	}
	return embedded(strings.TrimSuffix(arg, ".json"))
}

// MustLoad is Load for the embedded presets code names literally; the
// package's tests validate every embedded file, so a failure here is a
// programmer error.
func MustLoad(name string) scenario.Preset {
	p, err := Load(name)
	if err != nil {
		panic(err)
	}
	return p
}
