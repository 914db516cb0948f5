package core_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// TestFullCorpusDiskRoundTrip is the specgen → specparse pipeline: the
// default corpus is written to disk, streamed back through a DirSource
// engine, and must reproduce the paper's funnel and headline statistics
// exactly.
func TestFullCorpusDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 1017 files")
	}
	direct := core.New() // default synthetic source
	runs, err := direct.Runs()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := core.WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	streamed := core.New(core.WithSource(core.DirSource{Dir: dir}))
	ds, err := streamed.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Funnel
	if f.Raw != 1017 || f.Parsed != 960 || f.Comparable != 676 {
		t.Fatalf("funnel after disk round trip: %d/%d/%d", f.Raw, f.Parsed, f.Comparable)
	}
	// Derived metrics survive the decimal formatting of the reports; the
	// figures come out of each engine's analysis registry.
	dFig, err := core.AnalysisAs[analysis.TrendFigure](direct, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	pFig, err := core.AnalysisAs[analysis.TrendFigure](streamed, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	dEff, pEff := dFig.Yearly, pFig.Yearly
	if len(dEff) != len(pEff) {
		t.Fatalf("yearly bins differ: %d vs %d", len(dEff), len(pEff))
	}
	for i := range dEff {
		if dEff[i].N != pEff[i].N {
			t.Errorf("year %d: n %d vs %d", dEff[i].Year, dEff[i].N, pEff[i].N)
		}
		if rel := math.Abs(dEff[i].Mean-pEff[i].Mean) / dEff[i].Mean; rel > 0.01 {
			t.Errorf("year %d: mean eff drifted %.2f%% across render/parse",
				dEff[i].Year, 100*rel)
		}
	}
	// Top-100 composition is stable across the round trip.
	a, err := core.AnalysisAs[analysis.TopEfficiency](direct, "top100")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.AnalysisAs[analysis.TopEfficiency](streamed, "top100")
	if err != nil {
		t.Fatal(err)
	}
	if a.ByVendor["AMD"] != b.ByVendor["AMD"] {
		t.Errorf("top-100 AMD changed across round trip: %d vs %d",
			a.ByVendor["AMD"], b.ByVendor["AMD"])
	}
}
