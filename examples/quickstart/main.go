// Quickstart: build a streaming Engine over the calibrated synthetic
// corpus, run the paper's filter funnel, and print the headline numbers
// of each analysis — some through typed accessors, some through the
// named analysis registry.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)

	// 1. The engine. With no options it streams the default synthetic
	//    corpus: 1017 SPECpower_ssj2008 results calibrated to the
	//    published dataset's statistics. Nothing is generated or
	//    classified until the first analysis asks for the dataset, and
	//    each analysis is computed at most once per engine.
	eng := core.New()

	// 2. The funnel: 1017 → 960 parsed → 676 comparable.
	ds, err := eng.Dataset()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ds.Funnel)

	// 3. Headline trends, by registry name. AnalysisAs asserts the
	//    result type; eng.Run / eng.WriteJSONRequests return the same
	//    values untyped for generic output.
	growth, err := core.AnalysisAs[[]analysis.GrowthFactor](eng, "growth")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull-load power per socket: %.1f W (≤2010) → %.1f W (≥2022), ×%.2f\n",
		growth[0].EarlyMean, growth[0].LateMean, growth[0].Factor)

	eff, err := core.AnalysisAs[analysis.TrendFigure](eng, "fig3")
	if err != nil {
		log.Fatal(err)
	}
	first, last := eff.Yearly[0], eff.Yearly[len(eff.Yearly)-1]
	fmt.Printf("overall efficiency: %.0f ssj_ops/W (%d) → %.0f ssj_ops/W (%d)\n",
		first.Mean, first.Year, last.Mean, last.Year)

	top, err := core.AnalysisAs[analysis.TopEfficiency](eng, "top100")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-100 most efficient runs: %d AMD, %d Intel\n",
		top.ByVendor["AMD"], top.ByVendor["Intel"])

	idle, err := core.AnalysisAs[analysis.IdleFractionStats](eng, "idlehistory")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("idle fraction: %.1f %% (%d) → %.1f %% (%d, minimum) → %.1f %% (%d)\n",
		100*idle.FirstYearMean, idle.FirstYear,
		100*idle.MinYearMean, idle.MinYear,
		100*idle.LastYearMean, idle.LastYear)
}
