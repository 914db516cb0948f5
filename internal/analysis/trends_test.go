package analysis

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func TestPaperTrends(t *testing.T) {
	ds := dataset(t)
	// α = 0.10: the headline trends (power, efficiency, idle) are
	// significant at any reasonable level; the proportionality
	// convergence is marginal (p ≈ 0.06 on 20 yearly bins) — fittingly,
	// since the paper itself hedges that this trend "is not universal".
	trends, err := PaperTrends(ds.Comparable, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TrendAssessment{}
	for _, ta := range trends {
		byName[ta.Metric] = ta
	}
	expect := map[string]stats.TrendDirection{
		"power per socket @100% (full range)":     stats.TrendIncreasing,
		"overall ssj_ops/W (full range)":          stats.TrendIncreasing,
		"idle fraction 2005–2017":                 stats.TrendDecreasing,
		"idle fraction 2017–2024":                 stats.TrendIncreasing,
		"extrapolated idle quotient (full range)": stats.TrendIncreasing,
		"energy proportionality score 2005–2017":  stats.TrendIncreasing,
		"|1 − rel eff @70%| (full range)":         stats.TrendDecreasing,
	}
	for name, wantDir := range expect {
		ta, ok := byName[name]
		if !ok {
			t.Errorf("missing trend %q", name)
			continue
		}
		if ta.MK.Direction != wantDir {
			t.Errorf("%s: Mann-Kendall %v (p=%.4f), want %v",
				name, ta.MK.Direction, ta.MK.P, wantDir)
		}
		// Sen slope sign agrees with the test direction.
		if wantDir == stats.TrendIncreasing && ta.SenSlopePerYear <= 0 {
			t.Errorf("%s: Sen slope %v, want > 0", name, ta.SenSlopePerYear)
		}
		if wantDir == stats.TrendDecreasing && ta.SenSlopePerYear >= 0 {
			t.Errorf("%s: Sen slope %v, want < 0", name, ta.SenSlopePerYear)
		}
	}
	// Magnitude sanity: power/socket rises by several W per year.
	if ps := byName["power per socket @100% (full range)"]; ps.SenSlopePerYear < 2 {
		t.Errorf("power slope %.2f W/year implausibly flat", ps.SenSlopePerYear)
	}
}

func TestAssessTrendErrors(t *testing.T) {
	ds := dataset(t)
	if _, err := AssessTrend(ds.Comparable[:3], "x", (*model.Run).IdleFraction, 0, 0, 0.05); err == nil {
		t.Error("too few yearly bins should error")
	}
	if _, err := AssessTrend(ds.Comparable, "x", (*model.Run).IdleFraction, 0, 0, 7); err == nil {
		t.Error("bad alpha should error")
	}
}

func TestEPScore(t *testing.T) {
	mk := func(rel func(u float64) float64) *model.Run {
		r := &model.Run{}
		for _, load := range model.StandardLoads() {
			u := float64(load) / 100
			r.Points = append(r.Points, model.LoadPoint{
				TargetLoad: load, ActualOps: 1000 * u, AvgPower: 500 * rel(u),
			})
		}
		return r
	}
	// Perfectly proportional: EP = 1.
	prop := mk(func(u float64) float64 { return u })
	if got := EPScore(prop); math.Abs(got-1) > 1e-9 {
		t.Errorf("proportional EP = %v, want 1", got)
	}
	// Constant power: EP = 0.
	flat := mk(func(u float64) float64 { return 1 })
	if got := EPScore(flat); math.Abs(got) > 1e-9 {
		t.Errorf("flat EP = %v, want 0", got)
	}
	// Half idle intercept: EP = 0.5.
	half := mk(func(u float64) float64 { return 0.5 + 0.5*u })
	if got := EPScore(half); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half-intercept EP = %v, want 0.5", got)
	}
	// Degenerate runs.
	if !math.IsNaN(EPScore(&model.Run{})) {
		t.Error("empty run should be NaN")
	}
}

// sortSliceEPScore is EPScore sorting its points with sort.Slice, as it
// did before it sorted small runs by hand on the stack.
func sortSliceEPScore(r *model.Run) float64 {
	full := r.FullLoadPower()
	if math.IsNaN(full) || full <= 0 {
		return math.NaN()
	}
	var pts []loadRel
	for _, p := range r.Points {
		if p.TargetLoad != 0 {
			pts = append(pts, loadRel{float64(p.TargetLoad) / 100, p.AvgPower / full})
		}
	}
	if len(pts) < 2 {
		return math.NaN()
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].u < pts[j].u })
	var area float64
	for i := 1; i < len(pts); i++ {
		area += (pts[i].u - pts[i-1].u) * (pts[i].rel + pts[i-1].rel) / 2
	}
	lo, hi := pts[0].u, pts[len(pts)-1].u
	if hi-lo <= 0 || 1-(lo+hi)/2 <= 0 {
		return math.NaN()
	}
	return (1 - area/(hi-lo)) / (1 - (lo+hi)/2)
}

// TestEPScoreMatchesSortSlice checks EPScore's slices.SortFunc against
// sort.Slice, at up to 12 points and above, on runs whose duplicated
// load levels make the order of equal loads visible in the trapezoid sum.
func TestEPScoreMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runs := append([]*model.Run(nil), dataset(t).Comparable...)
	for range 2000 {
		r := &model.Run{}
		for range 2 + rng.Intn(16) {
			r.Points = append(r.Points, model.LoadPoint{
				TargetLoad: 10 * rng.Intn(11), AvgPower: 50 + 450*rng.Float64()})
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		if got, want := EPScore(r), sortSliceEPScore(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d (%d points): EPScore = %v, sort.Slice gives %v", i, len(r.Points), got, want)
		}
	}
}

func TestEPByYearTrend(t *testing.T) {
	ds := dataset(t)
	yearly := EPByYear(ds.Comparable)
	if len(yearly) < 10 {
		t.Fatalf("bins = %d", len(yearly))
	}
	first, last := yearly[0], yearly[len(yearly)-1]
	// The paper's conclusion: a positive proportionality trend.
	if last.Mean < first.Mean+0.2 {
		t.Errorf("EP barely improved: %.3f (%d) → %.3f (%d)",
			first.Mean, first.Year, last.Mean, last.Year)
	}
	// Recent systems are near-proportional but not perfect.
	if last.Mean < 0.6 || last.Mean > 1.1 {
		t.Errorf("recent EP = %.3f, implausible", last.Mean)
	}
}

func TestConfoundingScan(t *testing.T) {
	ds := dataset(t)
	findings, err := ConfoundingScan(ds.Comparable, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 21 { // C(7,2)
		t.Fatalf("findings = %d, want 21", len(findings))
	}
	get := func(a, b string) ConfoundFinding {
		for _, f := range findings {
			if (f.FeatureX == a && f.FeatureY == b) || (f.FeatureX == b && f.FeatureY == a) {
				return f
			}
		}
		t.Fatalf("missing pair %s/%s", a, b)
		return ConfoundFinding{}
	}
	// Cores ↔ overall efficiency: strongly positive pooled (AMD has both
	// more cores and higher efficiency).
	ce := get("cores", "overall_eff")
	if math.IsNaN(ce.Pooled) || ce.Pooled < 0.2 {
		t.Errorf("cores↔eff pooled = %v, want clearly positive", ce.Pooled)
	}
	// At least one substantial pooled correlation should be flagged as
	// vendor-confounded — the paper's "inconclusive" verdict.
	any := false
	for _, f := range findings {
		if f.Confounded {
			any = true
			break
		}
	}
	if !any {
		t.Error("no confounded pair found; the Section IV story is lost")
	}
	// Correlations bounded.
	for _, f := range findings {
		for _, v := range []float64{f.Pooled, f.WithinAMD, f.WithinIntel} {
			if !math.IsNaN(v) && (v < -1 || v > 1) {
				t.Errorf("%s/%s: correlation %v out of range", f.FeatureX, f.FeatureY, v)
			}
		}
	}
}
