package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/synth"
)

// TestCheckParseConsistencyAllocs: the parse-stage checks over the
// default synthetic corpus allocate nothing, so a filter scope that
// re-classifies its runs pays no garbage per run.
func TestCheckParseConsistencyAllocs(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, r := range runs {
			_ = model.CheckParseConsistency(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckParseConsistency over %d runs: %v allocs, want 0", len(runs), allocs)
	}
}
