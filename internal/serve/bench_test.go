package serve

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// BenchmarkEncodeAnalysis is the JSON-encoding layer alone: one
// sub-benchmark per registered analysis, encoding its default-parameter
// response over the default corpus as a cold request's render does.
func BenchmarkEncodeAnalysis(b *testing.B) {
	eng := core.New(core.WithSource(core.SliceSource(defaultRuns(b))))
	for _, name := range analysis.SortedNames() {
		reg, _ := analysis.Lookup(name)
		v, err := eng.Analysis(name)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		resp := analysisResponse{Name: name, Description: reg.Description, Value: v}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EncodeJSON(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
