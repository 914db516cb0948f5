package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"math"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/synth"
)

// corpus is generated once; analyses are pure functions over it.
var corpus []*model.Run

func dataset(t *testing.T) *Dataset {
	t.Helper()
	if corpus == nil {
		runs, err := synth.Generate(synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		corpus = runs
	}
	return BuildDataset(corpus)
}

func TestFunnelMatchesPaper(t *testing.T) {
	ds := dataset(t)
	f := ds.Funnel
	if f.Raw != 1017 || f.Parsed != 960 || f.Comparable != 676 {
		t.Fatalf("funnel %d → %d → %d, want 1017 → 960 → 676",
			f.Raw, f.Parsed, f.Comparable)
	}
	wantParse := map[model.RejectReason]int{
		model.RejectNotAccepted:            40,
		model.RejectAmbiguousDate:          3,
		model.RejectImplausibleDate:        4,
		model.RejectAmbiguousCPUName:       3,
		model.RejectMissingNodeCount:       1,
		model.RejectInconsistentCoreThread: 5,
		model.RejectImplausibleCoreThread:  1,
	}
	for _, rc := range f.ParseStage {
		if rc.Count != wantParse[rc.Reason] {
			t.Errorf("parse stage %v = %d, want %d", rc.Reason, rc.Count, wantParse[rc.Reason])
		}
	}
	wantComp := map[model.RejectReason]int{
		model.RejectNonX86Vendor:      9,
		model.RejectNonServerCPU:      6,
		model.RejectMultiNodeOrBigSMP: 269,
	}
	for _, rc := range f.ComparabilityStage {
		if rc.Count != wantComp[rc.Reason] {
			t.Errorf("comparability %v = %d, want %d", rc.Reason, rc.Count, wantComp[rc.Reason])
		}
	}
}

func TestSubmissionTrendsS2(t *testing.T) {
	ds := dataset(t)
	s := SubmissionTrends(ds.Parsed)
	if math.Abs(s.RunsPerYear0523-44.2) > 1.0 {
		t.Errorf("2005–2023 rate = %.1f, paper 44.2", s.RunsPerYear0523)
	}
	if math.Abs(s.RunsPerYear1317-15.2) > 1.0 {
		t.Errorf("2013–2017 rate = %.1f, paper 15.2", s.RunsPerYear1317)
	}
	if math.Abs(s.LinuxSharePre-0.022) > 0.015 {
		t.Errorf("Linux pre-2018 = %.3f, paper 0.022", s.LinuxSharePre)
	}
	if math.Abs(s.LinuxSharePost-0.363) > 0.05 {
		t.Errorf("Linux post-2018 = %.3f, paper 0.363", s.LinuxSharePost)
	}
	if math.Abs(s.AMDSharePre-0.130) > 0.025 {
		t.Errorf("AMD pre-2018 = %.3f, paper 0.130", s.AMDSharePre)
	}
	if math.Abs(s.AMDSharePost-0.313) > 0.04 {
		t.Errorf("AMD post-2018 = %.3f, paper 0.313", s.AMDSharePost)
	}
}

func TestPowerGrowthS3(t *testing.T) {
	ds := dataset(t)
	growth, err := PowerGrowth(ds.Comparable)
	if err != nil {
		t.Fatal(err)
	}
	byLoad := map[int]GrowthFactor{}
	for _, g := range growth {
		byLoad[g.Load] = g
	}
	full := byLoad[100]
	// Paper: 119.0 W → 303.3 W, ×2.55.
	if full.EarlyMean < 95 || full.EarlyMean > 145 {
		t.Errorf("early full-load W/socket = %.1f, paper 119.0", full.EarlyMean)
	}
	if full.LateMean < 255 || full.LateMean > 355 {
		t.Errorf("late full-load W/socket = %.1f, paper 303.3", full.LateMean)
	}
	if full.Factor < 2.1 || full.Factor > 3.0 {
		t.Errorf("full-load growth ×%.2f, paper ×2.55", full.Factor)
	}
	// Paper: ×2.2 at 70 %, ×1.8 at 20 %; the shape constraint is
	// factor(20) < factor(70) < factor(100), all well above 1.
	f70, f20 := byLoad[70].Factor, byLoad[20].Factor
	if !(f20 < f70 && f70 <= full.Factor*1.02) {
		t.Errorf("growth ordering broken: 20%%=×%.2f 70%%=×%.2f 100%%=×%.2f",
			f20, f70, full.Factor)
	}
	if f70 < 1.7 || f70 > 2.7 {
		t.Errorf("70%% growth ×%.2f, paper ×2.2", f70)
	}
	if f20 < 1.3 || f20 > 2.3 {
		t.Errorf("20%% growth ×%.2f, paper ×1.8", f20)
	}
}

func TestTopEfficientS4(t *testing.T) {
	ds := dataset(t)
	top := TopEfficient(ds.Comparable, 100)
	if top.N != 100 {
		t.Fatalf("N = %d", top.N)
	}
	amd := top.ByVendor["AMD"]
	// Paper: 98 of 100. AMD must dominate overwhelmingly.
	if amd < 90 {
		t.Errorf("top-100 AMD count = %d, paper 98", amd)
	}
	if amd == 100 {
		t.Log("note: paper has 2 Intel runs in the top 100; corpus has 0")
	}
}

func TestIdleFractionHistoryS5(t *testing.T) {
	ds := dataset(t)
	s, err := IdleFractionHistory(ds.Comparable, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.FirstYear > 2007 {
		t.Errorf("first populated year = %d", s.FirstYear)
	}
	if math.Abs(s.FirstYearMean-0.701) > 0.06 {
		t.Errorf("first-year idle fraction = %.3f, paper 0.701", s.FirstYearMean)
	}
	if s.MinYear < 2015 || s.MinYear > 2019 {
		t.Errorf("minimum year = %d, paper 2017", s.MinYear)
	}
	if math.Abs(s.MinYearMean-0.157) > 0.035 {
		t.Errorf("minimum idle fraction = %.3f, paper 0.157", s.MinYearMean)
	}
	if s.LastYear != 2024 {
		t.Errorf("last year = %d", s.LastYear)
	}
	if math.Abs(s.LastYearMean-0.257) > 0.05 {
		t.Errorf("2024 idle fraction = %.3f, paper 0.257", s.LastYearMean)
	}
	if s.LastYearMean <= s.MinYearMean+0.04 {
		t.Errorf("idle regression missing: min %.3f vs last %.3f",
			s.MinYearMean, s.LastYearMean)
	}
}

func TestFig2Trend(t *testing.T) {
	ds := dataset(t)
	fig := Fig2PowerPerSocket(ds.Comparable)
	if len(fig.Points) != 676 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	first, last := fig.Yearly[0], fig.Yearly[len(fig.Yearly)-1]
	if last.Mean < 2*first.Mean {
		t.Errorf("per-socket power should grow strongly: %.0f → %.0f W",
			first.Mean, last.Mean)
	}
}

func TestFig3Trend(t *testing.T) {
	ds := dataset(t)
	fig := Fig3OverallEfficiency(ds.Comparable)
	yearly := map[int]YearlyStat{}
	for _, ys := range fig.Yearly {
		yearly[ys.Year] = ys
	}
	// Orders of magnitude: hundreds early, tens of thousands late.
	if early := yearly[2007].Mean; early < 150 || early > 900 {
		t.Errorf("2007 mean overall eff = %.0f, want a few hundred", early)
	}
	late := yearly[2023].Mean
	if late < 10000 || late > 40000 {
		t.Errorf("2023 mean overall eff = %.0f, want tens of thousands", late)
	}
	// AMD leads in recent years (Fig 3's visual finding).
	var amdSum, amdN, intelSum, intelN float64
	for _, p := range fig.Points {
		if p.Frac < 2022 {
			continue
		}
		switch p.Vendor {
		case "AMD":
			amdSum += p.Value
			amdN++
		case "Intel":
			intelSum += p.Value
			intelN++
		}
	}
	if amdN == 0 || intelN == 0 {
		t.Fatal("missing recent vendor data")
	}
	if amdSum/amdN < 1.4*(intelSum/intelN) {
		t.Errorf("recent AMD mean eff %.0f not clearly above Intel %.0f",
			amdSum/amdN, intelSum/intelN)
	}
}

func TestFig4RelativeEfficiency(t *testing.T) {
	ds := dataset(t)
	cells := Fig4RelativeEfficiency(ds.Comparable)
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	get := func(vendor string, year, load int) (Fig4Cell, bool) {
		for _, c := range cells {
			if c.Vendor == vendor && c.Year == year && c.Load == load {
				return c, true
			}
		}
		return Fig4Cell{}, false
	}
	// Early years: clearly below 1 at partial load.
	if c, ok := get("Intel", 2007, 60); ok {
		if c.Box.Median > 0.85 {
			t.Errorf("Intel 2007 @60%% median = %.3f, want « 1", c.Box.Median)
		}
	} else {
		t.Error("missing Intel 2007 @60% cell")
	}
	// Intel 2014: above 1 at ≥70 %.
	for _, load := range []int{70, 80, 90} {
		c, ok := get("Intel", 2014, load)
		if !ok {
			t.Errorf("missing Intel 2014 @%d%% cell", load)
			continue
		}
		if c.Box.Median < 1.0 {
			t.Errorf("Intel 2014 @%d%% median = %.3f, paper > 1", load, c.Box.Median)
		}
	}
	// Intel 2023: regressed to ≈1.
	if c, ok := get("Intel", 2023, 80); ok {
		if c.Box.Median < 0.85 || c.Box.Median > 1.1 {
			t.Errorf("Intel 2023 @80%% median = %.3f, paper ≈1", c.Box.Median)
		}
	} else {
		t.Error("missing Intel 2023 @80% cell")
	}
	// AMD approaches 1 around 2021 from below.
	if c, ok := get("AMD", 2019, 70); ok {
		if c.Box.Median >= 0.99 {
			t.Errorf("AMD 2019 @70%% median = %.3f, want < 0.99", c.Box.Median)
		}
	}
	if c, ok := get("AMD", 2022, 70); ok {
		if c.Box.Median < 0.9 || c.Box.Median > 1.12 {
			t.Errorf("AMD 2022 @70%% median = %.3f, want ≈1", c.Box.Median)
		}
	} else {
		t.Error("missing AMD 2022 @70% cell")
	}
}

func TestFig6QuotientTrend(t *testing.T) {
	ds := dataset(t)
	fig := Fig6IdleQuotient(ds.Comparable)
	yearly := map[int]YearlyStat{}
	for _, ys := range fig.Yearly {
		yearly[ys.Year] = ys
	}
	early := yearly[2006].Mean
	if early > 1.2 {
		t.Errorf("2006 quotient mean = %.2f, want ≈1", early)
	}
	late := yearly[2023].Mean
	if late < 1.25 {
		t.Errorf("2023 quotient mean = %.2f, want clearly above 1", late)
	}
	if late <= early {
		t.Error("quotient trend should rise")
	}
}

func TestFig1Shares(t *testing.T) {
	ds := dataset(t)
	rows := Fig1Shares(ds.Parsed)
	total := 0
	for _, row := range rows {
		total += row.Count
		// Shares sum to ≈1 in every panel.
		for name, m := range map[string]map[string]float64{
			"os": row.OS, "vendor": row.Vendor,
			"sockets": row.Sockets, "nodes": row.Nodes,
		} {
			var sum float64
			for _, v := range m {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("year %d %s shares sum to %v", row.Year, name, sum)
			}
		}
	}
	if total != 960 {
		t.Errorf("Fig1 covers %d runs, want 960", total)
	}
	// Windows dominates before 2018 (>97 % per the paper).
	for _, row := range rows {
		if row.Year >= 2013 && row.Year <= 2016 && row.Vendor["AMD"] > 0 {
			t.Errorf("year %d should have no AMD runs (share %.2f)",
				row.Year, row.Vendor["AMD"])
		}
	}
}

func TestRecentFeaturesS6(t *testing.T) {
	ds := dataset(t)
	s, err := RecentFeatures(ds.Comparable, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if s.AMD.N == 0 || s.Intel.N == 0 {
		t.Fatal("empty vendor bins")
	}
	// Paper: AMD 85.8 vs Intel 39.5 mean cores.
	if math.Abs(s.AMD.MeanCores-85.8) > 30 {
		t.Errorf("AMD mean cores = %.1f, paper 85.8", s.AMD.MeanCores)
	}
	if math.Abs(s.Intel.MeanCores-39.5) > 18 {
		t.Errorf("Intel mean cores = %.1f, paper 39.5", s.Intel.MeanCores)
	}
	if s.AMD.MeanCores < 1.6*s.Intel.MeanCores {
		t.Errorf("AMD core advantage %.1f vs %.1f too small",
			s.AMD.MeanCores, s.Intel.MeanCores)
	}
	// Paper: both ≈2.3 GHz mean; Intel spread larger (0.5 vs 0.3).
	if math.Abs(s.AMD.MeanGHz-2.3) > 0.35 || math.Abs(s.Intel.MeanGHz-2.3) > 0.35 {
		t.Errorf("mean GHz AMD %.2f / Intel %.2f, paper ≈2.3 both",
			s.AMD.MeanGHz, s.Intel.MeanGHz)
	}
	// Correlation matrix is complete and bounded.
	if len(s.Corr) != len(s.CorrNames) {
		t.Fatal("corr matrix shape")
	}
	for i := range s.Corr {
		for j := range s.Corr[i] {
			v := s.Corr[i][j]
			if !math.IsNaN(v) && (v < -1 || v > 1) {
				t.Errorf("corr[%d][%d] = %v", i, j, v)
			}
		}
		if s.Corr[i][i] != 1 {
			t.Errorf("diagonal not 1 at %d", i)
		}
	}
}

func TestWriteRunsCSVShape(t *testing.T) {
	ds := dataset(t)
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, ds.Comparable); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+676 || len(rows[0]) != 26 {
		t.Fatalf("csv = %d rows × %d columns, want header + 676 × 26", len(rows), len(rows[0]))
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{
		"id", "vendor", "year", "sockets", "overall_eff", "idle_frac",
		"idle_quot", "w_socket_100", "releff_70",
	} {
		if _, ok := col[name]; !ok {
			t.Errorf("missing column %q", name)
		}
	}
	// Spot-check one derived column against the model.
	overall, err := strconv.ParseFloat(rows[1][col["overall_eff"]], 64)
	if err != nil || math.Abs(overall-ds.Comparable[0].OverallOpsPerWatt()) > 1e-9 {
		t.Error("overall_eff column mismatches model computation")
	}
}

// TestWriteRunsCSVBytes pins the CSV bytes of the default synthetic
// corpus: the comparable set, and the raw set, whose unparsed runs
// write NaN metrics as empty cells.
func TestWriteRunsCSVBytes(t *testing.T) {
	ds := dataset(t)
	for stage, want := range map[string]string{
		"comparable": "5cf68bbe69aca4578f64953dc4d59935ed1707932e9e7e109788d9fa05b640bf",
		"raw":        "42f095df5a22a61269132b4220735a022ae353a6a8f5ce765fcea06a67011eb6",
	} {
		runs := ds.Comparable
		if stage == "raw" {
			runs = ds.Raw
		}
		h := sha256.New()
		if err := WriteRunsCSV(h, runs); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s csv sha256 = %s, want %s", stage, got, want)
		}
	}
}

func TestFunnelString(t *testing.T) {
	ds := dataset(t)
	s := ds.Funnel.String()
	for _, want := range []string{"1017", "960", "676", "not accepted"} {
		if !contains(s, want) {
			t.Errorf("funnel report missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
