package experiment

// Quality trades run time for statistical confidence.
type Quality struct {
	// Warmup completions are discarded; Measure completions recorded.
	Warmup, Measure int
	// Seed fixes every random stream.
	Seed uint64
}

// Quick is suitable for tests and testing.B benchmarks; Full for the CLI
// runs recorded in EXPERIMENTS.md.
var (
	Quick = Quality{Warmup: 2_000, Measure: 12_000, Seed: 7}
	Full  = Quality{Warmup: 20_000, Measure: 100_000, Seed: 7}
)

// The figure and table definitions are checked-in scenario presets under
// scenarios/ — titles, labels, grids, workloads and knobs live in the
// JSON files — and every one of them is measured by Run. The two
// registries below are the only place a command-line id is tied to a
// preset: mindgap-bench's -fig/-table flags, their help text, -list and
// the all-figures run order, and the mindgap library's Figures(), all
// derive from them.

// Entry ties a mindgap-bench command-line id to its definition.
type Entry struct{ ID, Source string }

// FigureIDs lists every reproducible figure in mindgap-bench's run
// order: the id `-fig` takes and the name of the scenario preset that
// declares it.
var FigureIDs = []Entry{
	{"2", "figure2"},
	{"3", "figure3"},
	{"3burst", "figure3-burst"},
	{"4", "figure4"},
	{"5", "figure5"},
	{"6", "figure6"},
	{"6cxl", "figure6-cxl"},
	{"6linerate", "figure6-linerate"},
	{"baselines", "baselines"},
	{"faults-niccrash", "figure-faults-niccrash"},
	{"faults-lossyfabric", "figure-faults-lossyfabric"},
	{"flowrule", "figure-flowrule"},
}

// TableIDs lists every table in mindgap-bench's -list order: the id
// `-table` takes and where its definition lives.
var TableIDs = []Entry{
	{"timer", "(analytic, no preset)"},
	{"ipc", "scenarios/table-ipc.json"},
	{"wait", "scenarios/table-wait.json"},
	{"latency", "(analytic, no preset)"},
	{"policy", "scenarios/table-policy.json"},
	{"dispersion", "scenarios/table-dispersion.json"},
	{"affinity", "scenarios/table-affinity.json"},
	{"attribution", "scenarios/table-attribution.json"},
	{"tenants", "scenarios/table-tenants.json"},
	{"faults", "scenarios/figure-faults-*.json"},
	{"flowrule", "scenarios/figure-flowrule.json"},
}
