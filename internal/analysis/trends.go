package analysis

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/stats"
)

// TrendAssessment is the statistical verdict on one metric's evolution
// over hardware-availability time: a Mann-Kendall test on the yearly
// means plus a Theil–Sen slope over the per-run scatter.
type TrendAssessment struct {
	Metric string
	// Years covered (first/last yearly bin used).
	FromYear, ToYear int
	MK               stats.MKResult
	// SenSlopePerYear is the robust per-year change of the metric.
	SenSlopePerYear float64
	// Tau is Kendall's τ of (availability date, metric) over runs.
	Tau float64
}

// AssessTrend runs the trend tests for a metric over runs whose
// hardware availability falls in [fromYear, toYear] (0 = unbounded).
func AssessTrend(runs []*model.Run, name string, metric Metric, fromYear, toYear int, alpha float64) (TrendAssessment, error) {
	sub := make([]*model.Run, 0, len(runs))
	for _, r := range runs {
		y := r.HWAvail.Year
		if (fromYear != 0 && y < fromYear) || (toYear != 0 && y > toYear) {
			continue
		}
		sub = append(sub, r)
	}
	yearly := YearlyMeans(sub, metric)
	if len(yearly) < 3 {
		return TrendAssessment{}, fmt.Errorf("analysis: trend %q has only %d yearly bins", name, len(yearly))
	}
	means := make([]float64, len(yearly))
	for i, ys := range yearly {
		means[i] = ys.Mean
	}
	mk, err := stats.MannKendall(means, alpha)
	if err != nil {
		return TrendAssessment{}, fmt.Errorf("analysis: trend %q: %w", name, err)
	}
	xs := make([]float64, len(sub))
	ys := make([]float64, len(sub))
	for i, r := range sub {
		xs[i], ys[i] = r.HWAvail.Frac(), metric(r)
	}
	slope, err := stats.SenSlope(xs, ys)
	if err != nil {
		return TrendAssessment{}, fmt.Errorf("analysis: trend %q: %w", name, err)
	}
	tau, err := stats.KendallTau(xs, ys)
	if err != nil {
		return TrendAssessment{}, fmt.Errorf("analysis: trend %q: %w", name, err)
	}
	return TrendAssessment{
		Metric:          name,
		FromYear:        yearly[0].Year,
		ToYear:          yearly[len(yearly)-1].Year,
		MK:              mk,
		SenSlopePerYear: slope,
		Tau:             tau,
	}, nil
}

// PaperTrends runs the trend tests backing the paper's conclusions:
// power per socket rising, overall efficiency rising, idle fraction
// falling to 2017 and rising after, and the idle quotient rising.
// The seven tests run concurrently across up to workers goroutines
// (0 = GOMAXPROCS); the registry passes Dataset.Workers through, so an
// engine's worker bound caps this fan-out too.
func PaperTrends(comparable []*model.Run, alpha float64, workers int) ([]TrendAssessment, error) {
	specs := []struct {
		name     string
		metric   Metric
		from, to int
	}{
		{"power per socket @100% (full range)", func(r *model.Run) float64 { return r.PowerPerSocketAt(100) }, 0, 0},
		{"overall ssj_ops/W (full range)", (*model.Run).OverallOpsPerWatt, 0, 0},
		{"idle fraction 2005–2017", (*model.Run).IdleFraction, 0, 2017},
		{"idle fraction 2017–2024", (*model.Run).IdleFraction, 2017, 0},
		{"extrapolated idle quotient (full range)", (*model.Run).ExtrapolatedIdleQuotient, 0, 0},
		// The paper's proportionality conclusion is hedged ("although
		// this trend is not universal"): the EP score rises sharply to
		// the mid-2010s and then drifts, so the EP trend is assessed
		// over its rising era while Figure 4's convergence — the
		// deviation of relative efficiency from 1 at 70 % load — is
		// assessed over the full range.
		{"energy proportionality score 2005–2017", EPScore, 0, 2017},
		{"|1 − rel eff @70%| (full range)", func(r *model.Run) float64 {
			return math.Abs(1 - r.RelativeEfficiencyAt(70))
		}, 0, 0},
	}
	// The specs are independent, and each builds all n(n−1)/2 pairwise
	// slopes of its runs for the Sen slope, so they run concurrently.
	// Results stay in spec order and the lowest-index error wins,
	// keeping the output and the failure mode deterministic.
	out := make([]TrendAssessment, len(specs))
	err := par.ForEach(len(specs), workers, func(i int) error {
		s := specs[i]
		var err error
		out[i], err = AssessTrend(comparable, s.name, s.metric, s.from, s.to, alpha)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
