package analysis

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/stats"
)

// ConfoundFinding compares the pooled correlation of two run features
// with the per-vendor correlations. The paper's Section IV reports that
// its correlation exploration of the recent idle-fraction regression
// "remains inconclusive" because "CPU vendor lineups, as well as
// submitted runs affect many features, confounding possible
// correlations" — this analysis makes that confounding visible:
// a pooled correlation whose sign or magnitude collapses within the
// vendor strata is an artifact of vendor composition (Simpson-style),
// not a causal signal.
type ConfoundFinding struct {
	FeatureX, FeatureY string
	Pooled             float64
	WithinAMD          float64
	WithinIntel        float64
	// Confounded is set when the pooled correlation is substantial but
	// loses half its magnitude (or flips sign) in both strata.
	Confounded bool
}

// confoundFeatures are the per-run features the exploration covers.
var confoundFeatures = []struct {
	name   string
	metric Metric
}{
	{"cores", func(r *model.Run) float64 { return float64(r.TotalCores) }},
	{"ghz", func(r *model.Run) float64 { return r.NominalGHz }},
	{"tdp", func(r *model.Run) float64 { return r.TDPWatts }},
	{"mem_gb", func(r *model.Run) float64 { return float64(r.MemGB) }},
	{"idle_frac", (*model.Run).IdleFraction},
	{"idle_quot", (*model.Run).ExtrapolatedIdleQuotient},
	{"overall_eff", (*model.Run).OverallOpsPerWatt},
}

// ConfoundingScan computes pooled vs within-vendor correlations for all
// feature pairs over runs with hardware availability ≥ sinceYear. A
// vendor stratum with fewer than two such runs, or a pair without a
// correlation in one of the groups, is an error naming the group.
func ConfoundingScan(comparable []*model.Run, sinceYear int) ([]ConfoundFinding, error) {
	var pool, amd, intel []*model.Run
	for _, r := range comparable {
		if r.HWAvail.Year < sinceYear {
			continue
		}
		pool = append(pool, r)
		switch r.CPUVendor {
		case model.VendorAMD:
			amd = append(amd, r)
		case model.VendorIntel:
			intel = append(intel, r)
		}
	}
	groups := []struct {
		name string
		runs []*model.Run
	}{{"all", pool}, {"AMD", amd}, {"Intel", intel}}
	for _, g := range groups[1:] {
		if len(g.runs) < 2 {
			return nil, fmt.Errorf("analysis: confound has %d %s runs since %d, need at least 2", len(g.runs), g.name, sinceYear)
		}
	}
	column := func(runs []*model.Run, m Metric) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = m(r)
		}
		return out
	}
	var out []ConfoundFinding
	for i := 0; i < len(confoundFeatures); i++ {
		for j := i + 1; j < len(confoundFeatures); j++ {
			fx, fy := confoundFeatures[i], confoundFeatures[j]
			var rs [3]float64
			for k, g := range groups {
				r, err := stats.Pearson(column(g.runs, fx.metric), column(g.runs, fy.metric))
				if err != nil {
					return nil, fmt.Errorf("analysis: confound %s↔%s over %s runs since %d: %w",
						fx.name, fy.name, g.name, sinceYear, err)
				}
				rs[k] = r
			}
			f := ConfoundFinding{
				FeatureX:    fx.name,
				FeatureY:    fy.name,
				Pooled:      rs[0],
				WithinAMD:   rs[1],
				WithinIntel: rs[2],
			}
			f.Confounded = isConfounded(f)
			out = append(out, f)
		}
	}
	return out, nil
}

// isConfounded flags pooled correlations that do not survive
// stratification by vendor.
func isConfounded(f ConfoundFinding) bool {
	if math.Abs(f.Pooled) < 0.3 {
		return false
	}
	weak := func(within float64) bool {
		// Sign flip or magnitude collapse below half the pooled value.
		return within*f.Pooled < 0 || math.Abs(within) < math.Abs(f.Pooled)/2
	}
	return weak(f.WithinAMD) && weak(f.WithinIntel)
}
