package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Preset is a checked-in scenario file: presentation metadata plus one
// or more series, each a full Spec. Preset-level Workload, Keys, Load
// and Seed are defaults inherited by series that leave them unset, so a
// figure whose curves share a workload and load grid states them once.
type Preset struct {
	// ID names the preset; checked-in files are named <id>.json.
	ID string `json:"id"`
	// Title, XLabel and YLabel are presentation metadata.
	Title  string `json:"title,omitempty"`
	XLabel string `json:"xlabel,omitempty"`
	YLabel string `json:"ylabel,omitempty"`
	// Workload, Keys, Flow, Load and Seed are series defaults.
	Workload string    `json:"workload,omitempty"`
	Keys     *KeysSpec `json:"keys,omitempty"`
	Flow     *FlowSpec `json:"flow,omitempty"`
	Load     *LoadSpec `json:"load,omitempty"`
	Seed     uint64    `json:"seed,omitempty"`
	// Series holds one entry per measured curve.
	Series []SeriesSpec `json:"series,omitempty"`
}

// SeriesSpec is one labelled curve of a preset.
type SeriesSpec struct {
	// Label names the curve in rendered figures and cache keys.
	Label string `json:"label"`
	Spec
}

// SpecFor resolves series i against the preset defaults: the series
// spec with unset Workload/Keys/Flow/Load/Seed filled from the preset.
func (p Preset) SpecFor(i int) Spec {
	sp := p.Series[i].Spec
	if sp.Workload == "" {
		sp.Workload = p.Workload
	}
	if sp.Keys == nil {
		sp.Keys = p.Keys
	}
	if sp.Flow == nil {
		sp.Flow = p.Flow
	}
	if sp.Load == nil {
		sp.Load = p.Load
	}
	if sp.Seed == 0 {
		sp.Seed = p.Seed
	}
	return sp
}

// Encode renders the preset in the canonical on-disk form: two-space
// indented JSON with a trailing newline. The scenarios package's golden
// tests pin Encode(DecodePreset(file)) == file for every checked-in
// preset, so files stay canonical.
func (p Preset) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodePreset parses a preset file, rejecting unknown fields.
func DecodePreset(b []byte) (Preset, error) {
	var p Preset
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Preset{}, fmt.Errorf("scenario: decode preset: %w", err)
	}
	return p, nil
}

// DecodeAny parses either a preset or a bare single Spec, wrapping the
// latter into a one-series preset labelled by its system — so
// `mindgap-sim -scenario file.json` accepts both shapes.
func DecodeAny(b []byte) (Preset, error) {
	p, perr := DecodePreset(b)
	if perr == nil && len(p.Series) > 0 {
		return p, nil
	}
	sp, serr := Decode(b)
	if serr == nil && sp.System != "" {
		return Preset{
			ID:     sp.System,
			Series: []SeriesSpec{{Label: sp.System, Spec: sp}},
		}, nil
	}
	if perr != nil {
		return Preset{}, perr
	}
	return Preset{}, fmt.Errorf("scenario: file declares neither series nor a system")
}

// Validate checks the preset and every resolved series spec.
func (p Preset) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("scenario: preset needs an id")
	}
	if len(p.Series) == 0 {
		return fmt.Errorf("scenario: preset %q has no series", p.ID)
	}
	for i, s := range p.Series {
		if s.Label == "" {
			return fmt.Errorf("scenario: preset %q series %d has no label", p.ID, i)
		}
		sp := p.SpecFor(i)
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("scenario: preset %q series %q: %w", p.ID, s.Label, err)
		}
		if len(sp.Tenants) > 0 {
			continue // the tenants are the workload and the load
		}
		if sp.Workload == "" {
			return fmt.Errorf("scenario: preset %q series %q has no workload", p.ID, s.Label)
		}
		if sp.Load == nil {
			return fmt.Errorf("scenario: preset %q series %q has no load", p.ID, s.Label)
		}
	}
	return nil
}
