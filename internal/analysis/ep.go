package analysis

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/model"
)

// EPScore computes an energy-proportionality score for one run,
// following the linear-deviation formulation used in the energy
// proportionality literature the paper builds on (Hsu/Poole): with
// rel(u) the measured power at utilization u as a fraction of full
// power,
//
//	EP = 1 − (A − 1/2) / (1/2)  =  2·(1 − A)
//
// where A = ∫ rel(u) du over the measured partial-load span, computed
// by trapezoid over the run's graduated load points. The active-idle
// interval is excluded: proportionality concerns a system that is doing
// work (Figure 4 likewise analyses 60–90 % load), and including the
// package-C-state idle point would conflate the paper's two separate
// findings (proportionality improving; idle optimization regressing).
// A perfectly proportional system (rel(u) = u) scores 1; a system
// drawing full power at every load scores 0; scores above 1 are
// possible when partial-load power dips below the proportional line.
func EPScore(r *model.Run) float64 {
	full := r.FullLoadPower()
	if math.IsNaN(full) || full <= 0 {
		return math.NaN()
	}
	// A SPECpower run has ten graduated load levels, so the points fit
	// a stack buffer. slices.SortFunc runs the same pdqsort as sort.Slice,
	// so equal loads keep the order sort.Slice gave them.
	var buf [12]loadRel
	pts := buf[:0]
	for _, p := range r.Points {
		if p.TargetLoad == 0 {
			continue // active idle excluded (see above)
		}
		pts = append(pts, loadRel{float64(p.TargetLoad) / 100, p.AvgPower / full})
	}
	if len(pts) < 2 {
		return math.NaN()
	}
	slices.SortFunc(pts, func(a, b loadRel) int { return cmp.Compare(a.u, b.u) })
	var area float64
	for i := 1; i < len(pts); i++ {
		du := pts[i].u - pts[i-1].u
		area += du * (pts[i].rel + pts[i-1].rel) / 2
	}
	lo, hi := pts[0].u, pts[len(pts)-1].u
	span := hi - lo
	if span <= 0 {
		return math.NaN()
	}
	meanRel := area / span
	// Over the span [lo,hi], a flat curve has mean 1 and a proportional
	// one has mean (lo+hi)/2; map those to 0 and 1 respectively.
	denom := 1 - (lo+hi)/2
	if denom <= 0 {
		return math.NaN()
	}
	return (1 - meanRel) / denom
}

// loadRel is one graduated load level u with its power relative to
// full load.
type loadRel struct{ u, rel float64 }

// EPByYear bins EP scores by hardware-availability year (the positive
// proportionality trend of the paper's conclusion).
func EPByYear(comparable []*model.Run) []YearlyStat {
	return YearlyMeans(comparable, EPScore)
}
