// Fixture loaded as package path "mindgap/cmd/demo": floateq only
// applies to simulation/stats packages.
package e

func liveThreshold(load float64) bool { return load == 1.0 }
