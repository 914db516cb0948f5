package parser_test

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/parser"
)

// ExampleParse demonstrates parsing a result file and reading the
// derived metrics the paper analyses.
func ExampleParse() {
	text := `SPECpower_ssj2008 Result
Report ID: power_ssj2008-20230801-00042
Status: accepted
Test Date: Jul-2023
Submission Date: Aug-2023
Hardware Availability: Aug-2023
Software Availability: Jun-2023
Nodes: 1
CPU: AMD EPYC 9754
Sockets per Node: 2
Cores per Socket: 128
Threads per Core: 2
Total Cores: 256
Total Threads: 512
Operating System: SUSE Linux Enterprise Server 15 SP4
Benchmark Results
Target Load   ssj_ops   Average Power (W)
100%   26,000,000   720.0
20%     5,200,000   330.0
10%     2,600,000   300.0
Active Idle   0   90.0
Overall Score: 23000 overall ssj_ops/watt
`
	run, err := parser.Parse(strings.NewReader(text))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("vendor:", run.CPUVendor)
	fmt.Printf("idle fraction: %.3f\n", run.IdleFraction())
	fmt.Printf("extrapolated idle quotient: %.2f\n", run.ExtrapolatedIdleQuotient())
	fmt.Println("verdict:", model.Classify(run))
	// Output:
	// vendor: AMD
	// idle fraction: 0.125
	// extrapolated idle quotient: 3.00
	// verdict: accepted
}
