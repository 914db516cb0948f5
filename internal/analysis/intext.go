package analysis

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/stats"
)

// SubmissionStats reproduces the Section II in-text numbers over the
// parsed corpus (S2).
type SubmissionStats struct {
	// RunsPerYear0523 is the average submission rate 2005–2023
	// (paper: 44.2); RunsPerYear1317 covers 2013–2017 (paper: 15.2).
	RunsPerYear0523 float64
	RunsPerYear1317 float64
	// LinuxSharePre/Post split at hardware availability 2018
	// (paper: 2.2 % → 36.3 %).
	LinuxSharePre, LinuxSharePost float64
	// AMDSharePre/Post likewise (paper: 13.0 % → 31.3 %), measured over
	// Intel+AMD runs.
	AMDSharePre, AMDSharePost float64
}

// SubmissionTrends computes SubmissionStats.
func SubmissionTrends(parsed []*model.Run) SubmissionStats {
	var s SubmissionStats
	var n0523, n1317 float64
	var pre, post, preLinux, postLinux float64
	var preX86, postX86, preAMD, postAMD float64
	for _, r := range parsed {
		y := r.HWAvail.Year
		if y >= 2005 && y <= 2023 {
			n0523++
		}
		if y >= 2013 && y <= 2017 {
			n1317++
		}
		isLinux := r.OSFamily == model.OSLinux
		isX86 := r.CPUVendor == model.VendorIntel || r.CPUVendor == model.VendorAMD
		if y < 2018 {
			pre++
			if isLinux {
				preLinux++
			}
			if isX86 {
				preX86++
				if r.CPUVendor == model.VendorAMD {
					preAMD++
				}
			}
		} else {
			post++
			if isLinux {
				postLinux++
			}
			if isX86 {
				postX86++
				if r.CPUVendor == model.VendorAMD {
					postAMD++
				}
			}
		}
	}
	s.RunsPerYear0523 = n0523 / 19
	s.RunsPerYear1317 = n1317 / 5
	if pre > 0 {
		s.LinuxSharePre = preLinux / pre
	}
	if post > 0 {
		s.LinuxSharePost = postLinux / post
	}
	if preX86 > 0 {
		s.AMDSharePre = preAMD / preX86
	}
	if postX86 > 0 {
		s.AMDSharePost = postAMD / postX86
	}
	return s
}

// GrowthFactor is the late/early mean ratio of a metric at one load.
type GrowthFactor struct {
	Load      int
	EarlyMean float64 // runs with hardware availability ≤ EarlyCut
	LateMean  float64 // runs with hardware availability ≥ LateCut
	Factor    float64
}

// Power-growth era boundaries (paper: "runs up to 2010" vs "since 2022").
const (
	EarlyCut = 2010
	LateCut  = 2022
)

// PowerGrowth computes S3: mean per-socket power in the early and late
// eras at the given loads (paper: ×2.5 at 100 %, ×2.2 at 70 %, ×1.8 at
// 20 %, with 119.0 W → 303.3 W at full load). An era without a run
// measured at a load is an error naming the era: its mean, and so the
// factor, is undefined.
func PowerGrowth(comparable []*model.Run, loads ...int) ([]GrowthFactor, error) {
	if len(loads) == 0 {
		loads = []int{100, 70, 20}
	}
	out := make([]GrowthFactor, 0, len(loads))
	for _, load := range loads {
		var early, late []float64
		for _, r := range comparable {
			v := r.PowerPerSocketAt(load)
			if math.IsNaN(v) {
				continue
			}
			switch {
			case r.HWAvail.Year <= EarlyCut:
				early = append(early, v)
			case r.HWAvail.Year >= LateCut:
				late = append(late, v)
			}
		}
		if len(early) == 0 {
			return nil, fmt.Errorf("analysis: growth has no runs in the early era (hardware ≤ %d) at %d%% load", EarlyCut, load)
		}
		if len(late) == 0 {
			return nil, fmt.Errorf("analysis: growth has no runs in the late era (hardware ≥ %d) at %d%% load", LateCut, load)
		}
		gf := GrowthFactor{
			Load:      load,
			EarlyMean: stats.Mean(early),
			LateMean:  stats.Mean(late),
		}
		gf.Factor = gf.LateMean / gf.EarlyMean
		out = append(out, gf)
	}
	return out, nil
}

// TopEfficiency is S4: vendor composition of the n most efficient runs.
type TopEfficiency struct {
	N        int
	ByVendor map[string]int
}

// TopEfficient ranks the comparable runs by overall ssj_ops/W (paper:
// 98 of the top 100 use AMD).
func TopEfficient(comparable []*model.Run, n int) TopEfficiency {
	// Rank (key, index) pairs, each key computed once. A stable sort
	// whose less is exactly a.key > b.key makes the moves a stable sort
	// of the runs by that comparison makes, NaN keys included.
	type ranked struct {
		key float64
		i   int
	}
	order := make([]ranked, len(comparable))
	for i, r := range comparable {
		order[i] = ranked{r.OverallOpsPerWatt(), i}
	}
	slices.SortStableFunc(order, func(a, b ranked) int {
		if a.key > b.key {
			return -1
		}
		if b.key > a.key {
			return 1
		}
		return 0
	})
	n = min(n, len(order))
	out := TopEfficiency{N: n, ByVendor: map[string]int{}}
	for _, r := range order[:n] {
		out.ByVendor[comparable[r.i].CPUVendor.String()]++
	}
	return out
}

// IdleFractionStats is S5: the key points of the idle-fraction history.
type IdleFractionStats struct {
	// FirstYearMean is the earliest year's mean (paper: 70.1 % in 2006).
	FirstYear     int
	FirstYearMean float64
	// MinYear is the year of the minimum yearly mean (paper: 15.7 % in 2017).
	MinYear     int
	MinYearMean float64
	// LastYearMean is the final year's mean (paper: 25.7 % in 2024).
	LastYear     int
	LastYearMean float64
}

// IdleFractionHistory extracts S5 from the Figure 5 yearly means,
// considering only years with at least minRuns runs (tiny early bins are
// noise). It errors on a slice with no such year.
func IdleFractionHistory(comparable []*model.Run, minRuns int) (IdleFractionStats, error) {
	yearly := YearlyMeans(comparable, (*model.Run).IdleFraction)
	var kept []YearlyStat
	for _, ys := range yearly {
		if ys.N >= minRuns {
			kept = append(kept, ys)
		}
	}
	var s IdleFractionStats
	if len(kept) == 0 {
		return s, fmt.Errorf("analysis: idlehistory has no year with at least %d runs among %d runs", minRuns, len(comparable))
	}
	s.FirstYear, s.FirstYearMean = kept[0].Year, kept[0].Mean
	s.LastYear, s.LastYearMean = kept[len(kept)-1].Year, kept[len(kept)-1].Mean
	s.MinYearMean = math.Inf(1)
	for _, ys := range kept {
		if ys.Mean < s.MinYearMean {
			s.MinYear, s.MinYearMean = ys.Year, ys.Mean
		}
	}
	return s, nil
}

// VendorFeature is one side of the S6 comparison.
type VendorFeature struct {
	N         int
	MeanCores float64
	MeanGHz   float64
	StdGHz    float64
}

// RecentFeatureStats is S6: since-2021 feature comparison (paper: AMD
// mean cores 85.8 vs Intel 39.5; nominal frequency means ≈2.3 GHz both,
// standard deviations 0.3 vs 0.5 GHz) plus the correlation exploration
// the paper reports as inconclusive.
type RecentFeatureStats struct {
	SinceYear int
	AMD       VendorFeature
	Intel     VendorFeature
	// CorrNames and Corr hold the Pearson matrix over run features.
	CorrNames []string
	Corr      [][]float64
}

// RecentFeatures computes S6 over runs with hardware availability in or
// after sinceYear. A vendor with fewer than two such runs (no standard
// deviation) or a feature pair without a correlation is an error naming
// the group.
func RecentFeatures(comparable []*model.Run, sinceYear int) (RecentFeatureStats, error) {
	out := RecentFeatureStats{SinceYear: sinceYear}
	cols := map[string][]float64{}
	push := func(name string, v float64) { cols[name] = append(cols[name], v) }
	var amdCores, amdGHz, intelCores, intelGHz []float64
	for _, r := range comparable {
		if r.HWAvail.Year < sinceYear {
			continue
		}
		switch r.CPUVendor {
		case model.VendorAMD:
			amdCores = append(amdCores, float64(r.TotalCores))
			amdGHz = append(amdGHz, r.NominalGHz)
		case model.VendorIntel:
			intelCores = append(intelCores, float64(r.TotalCores))
			intelGHz = append(intelGHz, r.NominalGHz)
		}
		push("cores", float64(r.TotalCores))
		push("ghz", r.NominalGHz)
		push("tdp", r.TDPWatts)
		push("idle_frac", r.IdleFraction())
		push("idle_quot", r.ExtrapolatedIdleQuotient())
		push("overall_eff", r.OverallOpsPerWatt())
	}
	for _, g := range []struct {
		vendor string
		n      int
	}{{"AMD", len(amdCores)}, {"Intel", len(intelCores)}} {
		if g.n < 2 {
			return out, fmt.Errorf("analysis: features has %d %s runs since %d, need at least 2", g.n, g.vendor, sinceYear)
		}
	}
	out.AMD = VendorFeature{
		N:         len(amdCores),
		MeanCores: stats.Mean(amdCores),
		MeanGHz:   stats.Mean(amdGHz),
		StdGHz:    stats.StdDev(amdGHz),
	}
	out.Intel = VendorFeature{
		N:         len(intelCores),
		MeanCores: stats.Mean(intelCores),
		MeanGHz:   stats.Mean(intelGHz),
		StdGHz:    stats.StdDev(intelGHz),
	}
	out.CorrNames = []string{"cores", "ghz", "tdp", "idle_frac", "idle_quot", "overall_eff"}
	corr, err := stats.CorrMatrix(cols, out.CorrNames)
	if err != nil {
		return out, fmt.Errorf("analysis: features since %d: %w", sinceYear, err)
	}
	out.Corr = corr
	return out, nil
}
