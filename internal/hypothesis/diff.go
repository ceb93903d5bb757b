package hypothesis

import (
	"encoding/json"
	"fmt"
	"sort"

	"mindgap/internal/scenario"
)

// A hypothesis is only as good as its experimental design: if the arms
// differ in a dimension the claim does not mention, the comparison is
// confounded. This file diffs the two arm scenarios dimension by
// dimension — every scenario knob plus the structural dimensions of
// specDims — and requires the spec to declare exactly the differing set
// in Varied. Controlled is the complementary assertion: dimensions listed
// there must be set in both arms and equal, so a later edit that quietly
// unbalances a controlled knob fails validation instead of shipping a
// confounded FINDINGS report.

// dimValue renders one dimension of a spec as canonical JSON; "" means
// the dimension is unset. Values are compared as encoded bytes — never
// as floats — so the diff is exact and deterministic.
type dimValues struct {
	a, b string
}

func encodeDim(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Scenario specs are plain data; Marshal cannot fail.
		return "unencodable"
	}
	s := string(b)
	switch s {
	case "null", `""`, "0", "false", "[]", "{}":
		return "" // zero values read as "unset", matching omitempty
	}
	return s
}

// specDims explodes a scenario into its dimension map: the structural
// (non-knob) dimensions, then every knob by the name the scenario schema
// reflects from its struct tags, so a knob added there is diffable here.
func specDims(sp scenario.Spec) map[string]string {
	out := map[string]string{
		"system":   encodeDim(sp.System),
		"workload": encodeDim(sp.Workload),
		"keys":     encodeDim(sp.Keys),
		"flow":     encodeDim(sp.Flow),
		"tenants":  encodeDim(sp.Tenants),
		"load":     encodeDim(sp.Load),
		"faults":   encodeDim(sp.Faults),

		"calibration": encodeDim(sp.Calibration),
	}
	kn := sp.KnobsOrZero()
	kb, err := json.Marshal(kn)
	if err != nil {
		return out
	}
	var km map[string]json.RawMessage
	if err := json.Unmarshal(kb, &km); err != nil {
		return out
	}
	all, _ := kn.Names()
	for _, name := range all {
		out[name] = string(km[name]) // absent (unset) reads as ""
	}
	return out
}

// validateDiff enforces the controlled/varied contract described above.
func (s Spec) validateDiff() error {
	da, db := specDims(s.A.Scenario), specDims(s.B.Scenario)
	known := make(map[string]dimValues, len(da))
	for name, va := range da {
		known[name] = dimValues{a: va, b: db[name]}
	}

	varied := make(map[string]bool, len(s.Varied))
	for _, name := range s.Varied {
		v, ok := known[name]
		if !ok {
			return fmt.Errorf("hypothesis %s: varied names unknown dimension %q", s.ID, name)
		}
		if varied[name] {
			return fmt.Errorf("hypothesis %s: varied lists %q twice", s.ID, name)
		}
		if v.a == v.b {
			return fmt.Errorf("hypothesis %s: %q is declared varied but is identical in both arms", s.ID, name)
		}
		varied[name] = true
	}
	for _, name := range s.Controlled {
		v, ok := known[name]
		if !ok {
			return fmt.Errorf("hypothesis %s: controlled names unknown dimension %q", s.ID, name)
		}
		if varied[name] {
			return fmt.Errorf("hypothesis %s: %q cannot be both controlled and varied", s.ID, name)
		}
		if v.a == "" && v.b == "" {
			return fmt.Errorf("hypothesis %s: %q is declared controlled but set in neither arm", s.ID, name)
		}
		if v.a != v.b {
			return fmt.Errorf("hypothesis %s: %q is declared controlled but differs (a: %s, b: %s)",
				s.ID, name, orUnset(v.a), orUnset(v.b))
		}
	}

	// Every actual difference must be declared.
	var undeclared []string
	for name, v := range known {
		if v.a != v.b && !varied[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("hypothesis %s: arms differ in undeclared dimensions %v — list them in varied or equalize the arms",
			s.ID, undeclared)
	}
	return nil
}

func orUnset(v string) string {
	if v == "" {
		return "unset"
	}
	return v
}
