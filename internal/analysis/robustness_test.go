package analysis

import (
	"testing"

	"repro/internal/synth"
)

// TestStatisticsRobustAcrossSeeds guards against over-fitting to the
// pinned default seed: the qualitative findings must hold for any seed,
// with wider tolerances than the calibration tests use.
func TestStatisticsRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("generates several corpora")
	}
	for _, seed := range []int64{2, 5, 23, 71, 1234} {
		opt := synth.DefaultOptions()
		opt.Seed = seed
		runs, err := synth.Generate(opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ds := BuildDataset(runs)
		// Funnel counts are plan-driven, not seed-driven: always exact.
		if ds.Funnel.Raw != 1017 || ds.Funnel.Parsed != 960 || ds.Funnel.Comparable != 676 {
			t.Errorf("seed %d: funnel %d/%d/%d", seed,
				ds.Funnel.Raw, ds.Funnel.Parsed, ds.Funnel.Comparable)
		}
		// AMD dominates the efficiency ranking.
		top := TopEfficient(ds.Comparable, 100)
		if top.ByVendor["AMD"] < 70 {
			t.Errorf("seed %d: top-100 AMD = %d", seed, top.ByVendor["AMD"])
		}
		// Idle fraction: high start, minimum mid-2010s, regression after.
		s5, err := IdleFractionHistory(ds.Comparable, 5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s5.FirstYearMean < 0.55 || s5.FirstYearMean > 0.85 {
			t.Errorf("seed %d: first-year idle %.3f", seed, s5.FirstYearMean)
		}
		if s5.MinYear < 2014 || s5.MinYear > 2020 {
			t.Errorf("seed %d: idle minimum in %d", seed, s5.MinYear)
		}
		if s5.LastYearMean < s5.MinYearMean {
			t.Errorf("seed %d: no idle regression", seed)
		}
		// Power per socket grows at least 1.8×.
		growth, err := PowerGrowth(ds.Comparable)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, g := range growth {
			if g.Load == 100 && g.Factor < 1.8 {
				t.Errorf("seed %d: full-load growth ×%.2f", seed, g.Factor)
			}
		}
		// Efficiency rises by orders of magnitude.
		eff := Fig3OverallEfficiency(ds.Comparable)
		first, last := eff.Yearly[0], eff.Yearly[len(eff.Yearly)-1]
		if last.Mean < 20*first.Mean {
			t.Errorf("seed %d: efficiency grew only %.0f→%.0f",
				seed, first.Mean, last.Mean)
		}
	}
}
