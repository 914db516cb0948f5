package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// ExampleMannKendall tests a yearly series for a monotonic trend.
func ExampleMannKendall() {
	idleFraction := []float64{0.70, 0.62, 0.51, 0.40, 0.33, 0.25, 0.21, 0.18, 0.16}
	res, err := stats.MannKendall(idleFraction, 0.05)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("direction:", res.Direction)
	// Output:
	// direction: decreasing
}

// ExampleBox computes the five-number summary behind Figure 4's boxes.
func ExampleBox() {
	relEff := []float64{0.92, 0.95, 0.98, 1.00, 1.02, 1.05, 1.31}
	b := stats.Box(relEff)
	fmt.Printf("median %.2f, IQR [%.2f, %.2f], outliers %v\n",
		b.Median, b.Q1, b.Q3, b.Outliers)
	// Output:
	// median 1.00, IQR [0.96, 1.04], outliers [1.31]
}
