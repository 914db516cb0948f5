package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/plot"
	"repro/internal/stats"
)

// The terminal renderings of the registry's results, attached to each
// registration with the Text option. The full report (core's
// WriteReport) prints them under its section titles, so each result has
// exactly one text form.

// VendorClasses names the plot classes PlotPoints assigns, by index.
var VendorClasses = []string{"AMD", "Intel", "Other"}

// PlotPoints maps a trend scatter onto plot points, classed by vendor
// per VendorClasses.
func (sc Scatter) PlotPoints() []plot.Pt {
	pts := make([]plot.Pt, len(sc))
	for i, p := range sc {
		class := 2
		switch p.Vendor {
		case "AMD":
			class = 0
		case "Intel":
			class = 1
		}
		pts[i] = plot.Pt{X: p.Frac, Y: p.Value, Class: class}
	}
	return pts
}

// trendText renders one trend figure (scatter plus yearly means) with
// the given y-axis label.
func trendText(yLabel string) func(io.Writer, TrendFigure) {
	return func(w io.Writer, fig TrendFigure) {
		fmt.Fprint(w, plot.ASCIIScatter(fig.Points.PlotPoints(), plot.Axes{
			Title: fig.Name, XLabel: "hardware availability", YLabel: yLabel,
			Width: 76, Height: 18, ClassNames: VendorClasses,
		}))
		fmt.Fprintln(w, "yearly means:")
		for _, ys := range fig.Yearly {
			fmt.Fprintf(w, "  %d  n=%-3d mean=%-12.4g median=%.4g\n",
				ys.Year, ys.N, ys.Mean, ys.Median)
		}
	}
}

func funnelText(w io.Writer, f Funnel) { fmt.Fprint(w, f.String()) }

func fig1Text(w io.Writer, fig1 []Fig1Row) {
	for _, row := range fig1 {
		fmt.Fprintf(w, "%d  n=%-3d  Win %3.0f%% Lin %3.0f%% | Intel %3.0f%% AMD %3.0f%% | 2S %3.0f%% | multi-node %3.0f%%\n",
			row.Year, row.Count,
			100*row.OS["Windows"], 100*row.OS["Linux"],
			100*row.Vendor["Intel"], 100*row.Vendor["AMD"],
			100*row.Sockets["2"], 100*(row.Nodes["2"]+row.Nodes[">2"]))
	}
	var osRows, vendorRows []plot.StackedRow
	for _, row := range fig1 {
		label := fmt.Sprint(row.Year)
		osRows = append(osRows, plot.StackedRow{Label: label, Shares: row.OS})
		vendorRows = append(vendorRows, plot.StackedRow{Label: label, Shares: row.Vendor})
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, plot.ASCIIStacked(osRows, []string{"Windows", "Linux", "macOS", "Other"},
		plot.Axes{Title: "OS share per year", Width: 60}))
	fmt.Fprintln(w)
	fmt.Fprint(w, plot.ASCIIStacked(vendorRows, []string{"Intel", "AMD", "Other"},
		plot.Axes{Title: "CPU vendor share per year", Width: 60}))
}

// fig4Text renders Figure 4 as stacked ASCII box plots per vendor at
// 70 % and 90 % load, one row per year.
func fig4Text(w io.Writer, cells []Fig4Cell) {
	type key struct {
		vendor string
		load   int
	}
	grouped := map[key][]Fig4Cell{}
	for _, c := range cells {
		k := key{c.Vendor, c.Load}
		grouped[k] = append(grouped[k], c)
	}
	keys := make([]key, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].vendor != keys[j].vendor {
			return keys[i].vendor < keys[j].vendor
		}
		return keys[i].load < keys[j].load
	})
	for _, k := range keys {
		if k.load != 70 && k.load != 90 {
			continue // keep the terminal report compact
		}
		group := grouped[k]
		labels := make([]string, len(group))
		boxes := make([]stats.BoxStats, len(group))
		for i, c := range group {
			labels[i] = fmt.Sprintf("%d", c.Year)
			boxes[i] = c.Box
		}
		fmt.Fprintf(w, "%s @ %d%% load (1.0 = full-load efficiency):\n", k.vendor, k.load)
		fmt.Fprint(w, plot.ASCIIBoxes(labels, boxes, plot.Axes{Width: 56, YMin: 0.5, YMax: 1.5}))
		fmt.Fprintln(w)
	}
}

func submissionsText(w io.Writer, s SubmissionStats) {
	fmt.Fprintf(w, "runs/year 2005–2023:  %5.1f   (paper: 44.2)\n", s.RunsPerYear0523)
	fmt.Fprintf(w, "runs/year 2013–2017:  %5.1f   (paper: 15.2)\n", s.RunsPerYear1317)
	fmt.Fprintf(w, "Linux share pre/post 2018:  %4.1f %% → %4.1f %%   (paper: 2.2 → 36.3)\n",
		100*s.LinuxSharePre, 100*s.LinuxSharePost)
	fmt.Fprintf(w, "AMD share pre/post 2018:    %4.1f %% → %4.1f %%   (paper: 13.0 → 31.3)\n",
		100*s.AMDSharePre, 100*s.AMDSharePost)
}

func growthText(w io.Writer, growth []GrowthFactor) {
	for _, g := range growth {
		fmt.Fprintf(w, "S3 @%3d%%: early %.1f W → late %.1f W  (×%.2f)\n",
			g.Load, g.EarlyMean, g.LateMean, g.Factor)
	}
}

func top100Text(w io.Writer, top TopEfficiency) {
	fmt.Fprintf(w, "S4 top-100 most efficient: AMD %d, Intel %d   (paper: 98 / 2)\n",
		top.ByVendor["AMD"], top.ByVendor["Intel"])
}

func idleHistoryText(w io.Writer, s5 IdleFractionStats) {
	fmt.Fprintf(w, "S5: %d mean %.1f %% → min %d %.1f %% → %d mean %.1f %%   (paper: 70.1 → 15.7 (2017) → 25.7 (2024))\n",
		s5.FirstYear, 100*s5.FirstYearMean, s5.MinYear, 100*s5.MinYearMean,
		s5.LastYear, 100*s5.LastYearMean)
}

func changepointText(w io.Writer, cf ChangepointFinding) {
	fmt.Fprintf(w, "Pettitt changepoint: idle-fraction regime break after %d (p=%.4f, significant=%v)\n",
		cf.Year, cf.P, cf.Significant)
}

func featuresText(w io.Writer, s6 RecentFeatureStats) {
	fmt.Fprintf(w, "mean cores: AMD %.1f vs Intel %.1f   (paper: 85.8 vs 39.5)\n",
		s6.AMD.MeanCores, s6.Intel.MeanCores)
	fmt.Fprintf(w, "nominal GHz: AMD %.2f ±%.2f vs Intel %.2f ±%.2f   (paper: ≈2.3 both, σ 0.3 vs 0.5)\n",
		s6.AMD.MeanGHz, s6.AMD.StdGHz, s6.Intel.MeanGHz, s6.Intel.StdGHz)
	fmt.Fprintf(w, "correlation matrix (%s):\n", strings.Join(s6.CorrNames, ", "))
	for i, row := range s6.Corr {
		fmt.Fprintf(w, "  %-12s", s6.CorrNames[i])
		for _, v := range row {
			fmt.Fprintf(w, " %6.2f", v)
		}
		fmt.Fprintln(w)
	}
}

func trendsText(w io.Writer, trends []TrendAssessment) {
	for _, ta := range trends {
		fmt.Fprintf(w, "%-44s %-11s p=%.4f  Sen slope %+.4g/yr  τ=%+.2f  (%d–%d)\n",
			ta.Metric, ta.MK.Direction, ta.MK.P, ta.SenSlopePerYear, ta.Tau,
			ta.FromYear, ta.ToYear)
	}
}

func epText(w io.Writer, ep []YearlyStat) {
	for _, ys := range ep {
		fmt.Fprintf(w, "  %d  n=%-3d EP=%.3f\n", ys.Year, ys.N, ys.Mean)
	}
}

func confoundText(w io.Writer, findings []ConfoundFinding) {
	fmt.Fprintf(w, "%-24s %8s %8s %8s  %s\n", "pair", "pooled", "AMD", "Intel", "verdict")
	for _, f := range findings {
		verdict := ""
		if f.Confounded {
			verdict = "vendor-confounded"
		}
		fmt.Fprintf(w, "%-24s %8.2f %8.2f %8.2f  %s\n",
			f.FeatureX+"↔"+f.FeatureY, f.Pooled, f.WithinAMD, f.WithinIntel, verdict)
	}
	fmt.Fprintln(w, "(the paper: \"our correlation analysis … remains inconclusive\" — "+
		"pooled correlations collapse within vendor strata)")
}
