package simdet_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/simdet"
)

func TestSimdet(t *testing.T) {
	analysistest.Run(t, "testdata", simdet.Analyzer, "experiments", "sim", "other")
}
