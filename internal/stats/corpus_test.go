package stats_test

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/synth"
)

// TestTrendOraclesOnCorpus holds the trend statistics to the reference
// implementations on the series analysis.PaperTrends feeds them: each
// spec's (availability date, metric) scatter over the comparable runs
// of the default corpus.
func TestTrendOraclesOnCorpus(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	comparable := analysis.BuildDataset(runs).Comparable
	trends, err := analysis.PaperTrends(comparable, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The specs of analysis.PaperTrends, in its order; the name check
	// below catches the two drifting apart.
	specs := []struct {
		name     string
		metric   analysis.Metric
		from, to int
	}{
		{"power per socket @100% (full range)", func(r *model.Run) float64 { return r.PowerPerSocketAt(100) }, 0, 0},
		{"overall ssj_ops/W (full range)", (*model.Run).OverallOpsPerWatt, 0, 0},
		{"idle fraction 2005–2017", (*model.Run).IdleFraction, 0, 2017},
		{"idle fraction 2017–2024", (*model.Run).IdleFraction, 2017, 0},
		{"extrapolated idle quotient (full range)", (*model.Run).ExtrapolatedIdleQuotient, 0, 0},
		{"energy proportionality score 2005–2017", analysis.EPScore, 0, 2017},
		{"|1 − rel eff @70%| (full range)", func(r *model.Run) float64 {
			return math.Abs(1 - r.RelativeEfficiencyAt(70))
		}, 0, 0},
	}
	if len(trends) != len(specs) {
		t.Fatalf("PaperTrends returned %d assessments, want %d", len(trends), len(specs))
	}
	for i, s := range specs {
		if trends[i].Metric != s.name {
			t.Fatalf("assessment %d is %q, want %q", i, trends[i].Metric, s.name)
		}
		var xs, ys []float64
		for _, r := range comparable {
			y := r.HWAvail.Year
			if (s.from != 0 && y < s.from) || (s.to != 0 && y > s.to) {
				continue
			}
			xs = append(xs, r.HWAvail.Frac())
			ys = append(ys, s.metric(r))
		}
		want, err := stats.SortSenSlope(xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := trends[i].SenSlopePerYear; !stats.SameFloat(got, want) {
			t.Errorf("%s: Sen slope %v, sort gives %v", s.name, got, want)
		}
		want, err = stats.PairKendallTau(xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := trends[i].Tau; !stats.SameFloat(got, want) {
			t.Errorf("%s: τ %v, all pairs give %v", s.name, got, want)
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			if got, want := stats.Quantile(ys, q), stats.SortQuantile(ys, q); !stats.SameFloat(got, want) {
				t.Errorf("%s: quantile %v = %v, sort gives %v", s.name, q, got, want)
			}
		}
	}
}
