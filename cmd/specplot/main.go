// Command specplot renders Figures 1–6 of the paper as SVG files.
//
// Usage:
//
//	specplot -out figures/ [-in corpus/] [-seed 14]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specplot: ")
	in := flag.String("in", "", "corpus directory (empty = generate in memory)")
	out := flag.String("out", "figures", "output directory for SVG files")
	seed := flag.Int64("seed", synth.DefaultSeed, "seed when generating in memory")
	flag.Parse()

	opts := []core.Option{core.WithSeed(*seed)}
	if *in != "" {
		opts = []core.Option{core.WithSource(core.DirSource{Dir: *in})}
	}
	eng := core.New(opts...)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	// Figures come out of the engine's named registry; each is computed
	// lazily and memoized.
	figure := func(name string) analysis.TrendFigure {
		fig, err := core.AnalysisAs[analysis.TrendFigure](eng, name)
		if err != nil {
			log.Fatal(err)
		}
		return fig
	}

	write := func(name, svg string) {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}

	scatterSVG := func(fig analysis.TrendFigure, yLabel string, ax plot.Axes) string {
		ax.Title = fig.Name
		ax.XLabel = "Hardware Availability Date"
		ax.YLabel = yLabel
		ax.Width, ax.Height = 90, 40
		ax.ClassNames = analysis.VendorClasses
		return plot.SVGScatter(fig.Points.PlotPoints(), ax)
	}

	// Figure 1: run counts per year as bars (one SVG).
	rows, err := core.AnalysisAs[[]analysis.Fig1Row](eng, "fig1")
	if err != nil {
		log.Fatal(err)
	}
	var f1Labels []string
	var f1Counts, f1Linux, f1AMD []float64
	for _, r := range rows {
		f1Labels = append(f1Labels, fmt.Sprint(r.Year))
		f1Counts = append(f1Counts, float64(r.Count))
		f1Linux = append(f1Linux, 100*r.OS["Linux"])
		f1AMD = append(f1AMD, 100*r.Vendor["AMD"])
	}
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = float64(r.Year)
	}
	write("fig1_shares.svg", plot.SVGLines([]plot.Series{
		{Name: "runs", X: xs, Y: f1Counts},
		{Name: "Linux %", X: xs, Y: f1Linux},
		{Name: "AMD %", X: xs, Y: f1AMD},
	}, plot.Axes{Title: "Figure 1: corpus composition (960 parsed runs)",
		XLabel: "Hardware Availability Date", Width: 90, Height: 40}))

	var osRows []plot.StackedRow
	for _, r := range rows {
		osRows = append(osRows, plot.StackedRow{Label: fmt.Sprint(r.Year), Shares: r.OS})
	}
	write("fig1_os_stacked.svg", plot.SVGStacked(osRows,
		[]string{"Windows", "Linux", "macOS", "Other"},
		plot.Axes{Title: "Figure 1: OS share per year", Width: 80, Height: 50}))

	write("fig2_power_per_socket.svg",
		scatterSVG(figure("fig2"), "Power per Socket (W)", plot.Axes{}))
	write("fig3_overall_efficiency.svg",
		scatterSVG(figure("fig3"), "Overall ssj_ops/W", plot.Axes{}))
	write("fig5_idle_fraction.svg",
		scatterSVG(figure("fig5"), "Idle Power / Full Load Power", plot.Axes{}))
	write("fig6_idle_quotient.svg",
		scatterSVG(figure("fig6"), "Extrapolated Idle Quotient", plot.Axes{YMin: 0.8, YMax: 3}))

	// Figure 4: one box-grid SVG per vendor at 70 % load.
	cells, err := core.AnalysisAs[[]analysis.Fig4Cell](eng, "fig4")
	if err != nil {
		log.Fatal(err)
	}
	for _, vendor := range []string{"AMD", "Intel"} {
		var labels []string
		var boxes []stats.BoxStats
		for _, c := range cells {
			if c.Vendor == vendor && c.Load == 70 {
				labels = append(labels, fmt.Sprint(c.Year))
				boxes = append(boxes, c.Box)
			}
		}
		write(fmt.Sprintf("fig4_releff_%s.svg", vendor),
			plot.SVGBoxes(labels, boxes, plot.Axes{
				Title: fmt.Sprintf("Figure 4: relative efficiency at 70%% load (%s)", vendor),
				Width: 90, Height: 40, YMin: 0.5, YMax: 1.5,
			}))
	}
}
