package floateq_test

import (
	"testing"

	"mindgap/internal/lint/floateq"
	"mindgap/internal/lint/linttest"
)

func TestStatsPackage(t *testing.T) {
	linttest.Run(t, floateq.Analyzer, "mindgap/internal/stats", "testdata/stats")
}

func TestExemptPackage(t *testing.T) {
	linttest.Run(t, floateq.Analyzer, "mindgap/cmd/demo", "testdata/exempt")
}
