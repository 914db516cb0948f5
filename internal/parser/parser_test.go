package parser

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/report"
)

func sampleRun() *model.Run {
	r := &model.Run{
		ID:             "power_ssj2008-20230801-00042",
		Accepted:       true,
		TestDate:       model.YM(2023, time.July),
		SubmissionDate: model.YM(2023, time.August),
		HWAvail:        model.YM(2023, time.August),
		SWAvail:        model.YM(2023, time.June),
		SystemVendor:   "Lenovo",
		SystemName:     "ThinkSystem SR645 V3",
		CPUName:        "AMD EPYC 9754",
		Nodes:          1,
		SocketsPerNode: 2,
		CoresPerSocket: 128,
		ThreadsPerCore: 2,
		TotalCores:     256,
		TotalThreads:   512,
		NominalGHz:     2.25,
		TDPWatts:       360,
		MemGB:          384,
		PSUWatts:       1100,
		OSName:         "Windows Server 2022 Datacenter",
		JVM:            "HotSpot 64-Bit Server VM",
	}
	for _, load := range model.StandardLoads() {
		f := float64(load) / 100
		p := model.LoadPoint{
			TargetLoad: load,
			ActualOps:  float64(int64(26.5e6 * f)),
			AvgPower:   90 + 630*f,
		}
		if load == 0 {
			p.AvgPower = 88.4
		}
		r.Points = append(r.Points, p)
	}
	return r
}

// render writes r in the result-file format the parser reads.
func render(tb testing.TB, r *model.Run) string {
	tb.Helper()
	var b strings.Builder
	if err := report.Render(&b, r); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

func TestRoundTrip(t *testing.T) {
	orig := sampleRun()
	text := render(t, orig)
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse rendered report: %v\n%s", err, text)
	}
	if got.ID != orig.ID || got.Accepted != orig.Accepted {
		t.Errorf("identity fields: %+v", got)
	}
	if got.TestDate != orig.TestDate || got.HWAvail != orig.HWAvail ||
		got.SubmissionDate != orig.SubmissionDate || got.SWAvail != orig.SWAvail {
		t.Errorf("dates: got %v/%v/%v/%v", got.TestDate, got.SubmissionDate,
			got.HWAvail, got.SWAvail)
	}
	if got.SystemVendor != orig.SystemVendor || got.SystemName != orig.SystemName ||
		got.CPUName != orig.CPUName || got.OSName != orig.OSName || got.JVM != orig.JVM {
		t.Errorf("strings: %+v", got)
	}
	if got.Nodes != 1 || got.SocketsPerNode != 2 || got.CoresPerSocket != 128 ||
		got.ThreadsPerCore != 2 || got.TotalCores != 256 || got.TotalThreads != 512 ||
		got.MemGB != 384 || got.PSUWatts != 1100 {
		t.Errorf("topology: %+v", got)
	}
	if math.Abs(got.NominalGHz-2.25) > 1e-9 || math.Abs(got.TDPWatts-360) > 1e-9 {
		t.Errorf("cpu numbers: %v %v", got.NominalGHz, got.TDPWatts)
	}
	// Derived classifications.
	if got.CPUVendor != model.VendorAMD || got.CPUClass != model.ClassEPYC ||
		got.OSFamily != model.OSWindows {
		t.Errorf("classification: %v %v %v", got.CPUVendor, got.CPUClass, got.OSFamily)
	}
	// Measurement table.
	if len(got.Points) != 11 {
		t.Fatalf("points = %d", len(got.Points))
	}
	for i, p := range orig.Points {
		q := got.Points[i]
		if q.TargetLoad != p.TargetLoad {
			t.Errorf("point %d: load %d vs %d", i, q.TargetLoad, p.TargetLoad)
		}
		if math.Abs(q.ActualOps-p.ActualOps) > 0.5 {
			t.Errorf("point %d: ops %v vs %v", i, q.ActualOps, p.ActualOps)
		}
		if math.Abs(q.AvgPower-p.AvgPower) > 0.05 {
			t.Errorf("point %d: power %v vs %v", i, q.AvgPower, p.AvgPower)
		}
	}
}

func TestRoundTripPropertyTopology(t *testing.T) {
	// Arbitrary plausible topologies survive the round trip exactly.
	f := func(s, c, tc uint8, mem uint16) bool {
		r := sampleRun()
		r.SocketsPerNode = int(s%4) + 1
		r.CoresPerSocket = int(c%128) + 1
		r.ThreadsPerCore = int(tc%2) + 1
		r.TotalCores = r.Nodes * r.SocketsPerNode * r.CoresPerSocket
		r.TotalThreads = r.TotalCores * r.ThreadsPerCore
		r.MemGB = int(mem%2048) + 1
		got, err := Parse(strings.NewReader(render(t, r)))
		if err != nil {
			return false
		}
		return got.SocketsPerNode == r.SocketsPerNode &&
			got.CoresPerSocket == r.CoresPerSocket &&
			got.ThreadsPerCore == r.ThreadsPerCore &&
			got.TotalCores == r.TotalCores &&
			got.TotalThreads == r.TotalThreads &&
			got.MemGB == r.MemGB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNotAcceptedStatus(t *testing.T) {
	r := sampleRun()
	r.Accepted = false
	got, err := Parse(strings.NewReader(render(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Accepted {
		t.Error("status 'not accepted' parsed as accepted")
	}
}

func TestMissingNodesSurvivesToValidation(t *testing.T) {
	// Node count omitted from the report: the parser keeps Nodes == 0 and
	// the model check classifies it — the paper's "missing node count (1)".
	r := sampleRun()
	r.Nodes = 0 // Render omits the Nodes line for 0
	got, err := Parse(strings.NewReader(render(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != 0 {
		t.Fatalf("Nodes = %d, want 0", got.Nodes)
	}
	if rr := model.CheckParseConsistency(got); rr != model.RejectMissingNodeCount {
		t.Errorf("classification = %v", rr)
	}
}

func TestUnparseableDateBecomesAmbiguous(t *testing.T) {
	text := render(t, sampleRun())
	text = strings.Replace(text, "Jul-2023", "sometime in 2023", 1)
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !got.TestDate.IsZero() {
		t.Fatalf("TestDate = %v, want zero", got.TestDate)
	}
	if rr := model.CheckParseConsistency(got); rr != model.RejectAmbiguousDate {
		t.Errorf("classification = %v", rr)
	}
}

func TestStructuralErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"not a report", "hello world\nfoo: bar\n"},
		{"no id", "SPECpower_ssj2008 Result\nBenchmark Results\n100% 5 5\nOverall Score: 1\n"},
		{"no table", "SPECpower_ssj2008 Result\nReport ID: x\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCorruptTableRows(t *testing.T) {
	base := "SPECpower_ssj2008 Result\nReport ID: x\nBenchmark Results\n"
	cases := []string{
		base + "banana row here\n",
		base + "55x% 100 100\n",
		base + "50% abc 100\n",
		base + "50% 100 abc\n",
		base + "50% 100\n",
	}
	for i, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("case %d: corrupt row accepted", i)
		}
	}
}

func TestLenientFormats(t *testing.T) {
	text := `SPECpower_ssj2008 Result
Report ID: power_ssj2008-20071211-00001
Status: accepted
Test Date: 11/2007
Hardware Availability: Dec-07
Software Availability: 2007-10
Submission Date: Dec-2007
CPU: Intel Xeon X5355
CPU Frequency (MHz): 2660
Nodes: 1
Sockets per Node: 2
Cores per Socket: 4
Threads per Core: 1
Total Cores: 8
Total Threads: 8
Operating System: Microsoft Windows Server 2003
Benchmark Results
Target Load   ssj_ops   Average Power (W)
100%   220,754   331.0
50%    110,301   270.5
Active Idle   0   180.1
Overall Score: 400 overall ssj_ops/watt
`
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.TestDate != model.YM(2007, time.November) {
		t.Errorf("TestDate = %v", got.TestDate)
	}
	if got.HWAvail != model.YM(2007, time.December) {
		t.Errorf("HWAvail = %v", got.HWAvail)
	}
	if got.SWAvail != model.YM(2007, time.October) {
		t.Errorf("SWAvail = %v", got.SWAvail)
	}
	if math.Abs(got.NominalGHz-2.66) > 1e-9 {
		t.Errorf("MHz conversion: %v", got.NominalGHz)
	}
	if got.CPUVendor != model.VendorIntel || got.CPUClass != model.ClassXeon {
		t.Errorf("classification: %v %v", got.CPUVendor, got.CPUClass)
	}
	p, ok := got.Point(100)
	if !ok || math.Abs(p.ActualOps-220754) > 0.5 {
		t.Errorf("100%% ops = %v", p.ActualOps)
	}
	if idle, ok := got.Point(0); !ok || math.Abs(idle.AvgPower-180.1) > 1e-9 {
		t.Errorf("idle power missing or wrong")
	}
}

func TestPointsSortedAfterParse(t *testing.T) {
	// Table rows in shuffled order still come back sorted.
	text := `SPECpower_ssj2008 Result
Report ID: x1
Benchmark Results
50% 100 100
Active Idle 0 20
100% 200 150
Overall Score: 1 overall ssj_ops/watt
`
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.Points[0].TargetLoad != 100 || got.Points[2].TargetLoad != 0 {
		t.Errorf("points not sorted: %+v", got.Points)
	}
}

func TestThousands(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"}, {5, "5"}, {999, "999"}, {1000, "1,000"},
		{26500000, "26,500,000"}, {-1234, "-1,234"},
	}
	for _, c := range cases {
		if got := report.Thousands(c.in); got != c.want {
			t.Errorf("Thousands(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
