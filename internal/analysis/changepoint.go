package analysis

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/stats"
)

// ChangepointFinding locates the structural break in a metric's yearly
// history. Applied to the idle fraction it answers, statistically, the
// paper's Section IV observation that idle-specific optimization
// progress ended around 2017.
type ChangepointFinding struct {
	Metric string
	// Year is the last year of the first regime.
	Year        int
	K           float64
	P           float64
	Significant bool
}

// IdleFractionChangepoint runs the Pettitt test over the yearly mean
// idle fractions (years with at least minRuns runs).
func IdleFractionChangepoint(comparable []*model.Run, minRuns int, alpha float64) (ChangepointFinding, error) {
	return MetricChangepoint(comparable, "idle fraction",
		(*model.Run).IdleFraction, minRuns, alpha)
}

// MetricChangepoint runs the Pettitt test over any metric's yearly
// means.
func MetricChangepoint(comparable []*model.Run, name string, metric Metric, minRuns int, alpha float64) (ChangepointFinding, error) {
	yearly := YearlyMeans(comparable, metric)
	var years []int
	var means []float64
	for _, ys := range yearly {
		if ys.N >= minRuns {
			years = append(years, ys.Year)
			means = append(means, ys.Mean)
		}
	}
	res, err := stats.Pettitt(means, alpha)
	if err != nil {
		return ChangepointFinding{}, fmt.Errorf("analysis: changepoint %q: %w", name, err)
	}
	return ChangepointFinding{
		Metric:      name,
		Year:        years[res.Index],
		K:           res.K,
		P:           res.P,
		Significant: res.Significant,
	}, nil
}
