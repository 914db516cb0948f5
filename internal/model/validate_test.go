package model

import (
	"testing"
	"time"
)

func validRun() *Run {
	r := testRun()
	return r
}

func TestClassifyAccepts(t *testing.T) {
	if got := Classify(validRun()); got != RejectNone {
		t.Fatalf("Classify(valid) = %v", got)
	}
}

func TestParseConsistencyChecks(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Run)
		want RejectReason
	}{
		{"not accepted", func(r *Run) { r.Accepted = false }, RejectNotAccepted},
		{"missing hw date", func(r *Run) { r.HWAvail = YearMonth{} }, RejectAmbiguousDate},
		{"missing test date", func(r *Run) { r.TestDate = YearMonth{} }, RejectAmbiguousDate},
		{"hw long after test", func(r *Run) { r.HWAvail = r.TestDate.AddMonths(24) }, RejectImplausibleDate},
		{"ancient hw date", func(r *Run) {
			r.HWAvail = YM(1901, time.March)
			r.TestDate = YM(1901, time.April)
		}, RejectImplausibleDate},
		{"submission before test", func(r *Run) { r.SubmissionDate = r.TestDate.AddMonths(-3) }, RejectImplausibleDate},
		{"ambiguous cpu or", func(r *Run) { r.CPUName = "Intel Xeon X5570 or X5560" }, RejectAmbiguousCPUName},
		{"ambiguous cpu slash", func(r *Run) { r.CPUName = "Xeon E5-2670 / E5-2680" }, RejectAmbiguousCPUName},
		{"missing node count", func(r *Run) { r.Nodes = 0 }, RejectMissingNodeCount},
		{"inconsistent cores", func(r *Run) { r.TotalCores = 100 }, RejectInconsistentCoreThread},
		{"inconsistent threads", func(r *Run) { r.TotalThreads = 100 }, RejectInconsistentCoreThread},
		{"implausible cores", func(r *Run) {
			r.CoresPerSocket = 1000
			r.TotalCores = 2000
			r.TotalThreads = 4000
		}, RejectImplausibleCoreThread},
		{"zero threads per core", func(r *Run) { r.ThreadsPerCore = 0 }, RejectImplausibleCoreThread},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := validRun()
			c.mut(r)
			if got := CheckParseConsistency(r); got != c.want {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}

func TestComparabilityChecks(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Run)
		want RejectReason
	}{
		{"sparc", func(r *Run) {
			r.CPUVendor = VendorOther
			r.CPUName = "Sun UltraSPARC T2"
		}, RejectNonX86Vendor},
		{"desktop part", func(r *Run) {
			r.CPUClass = ClassNonServer
			r.CPUName = "Intel Core i7-980X"
			r.CPUVendor = VendorIntel
		}, RejectNonServerCPU},
		{"multi node", func(r *Run) {
			r.Nodes = 4
			r.TotalCores = 4 * 2 * 128
			r.TotalThreads = 4 * 2 * 128 * 2
		}, RejectMultiNodeOrBigSMP},
		{"four sockets", func(r *Run) {
			r.SocketsPerNode = 4
			r.TotalCores = 4 * 128
			r.TotalThreads = 4 * 128 * 2
		}, RejectMultiNodeOrBigSMP},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := validRun()
			c.mut(r)
			if got := Classify(r); got != c.want {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}

func TestCheckOrderingNotAcceptedWins(t *testing.T) {
	// A run failing several checks must report the first one in pipeline
	// order, matching the paper's sequential funnel accounting.
	r := validRun()
	r.Accepted = false
	r.Nodes = 0
	if got := Classify(r); got != RejectNotAccepted {
		t.Fatalf("got %v, want RejectNotAccepted", got)
	}
}

func TestReasonStageSplit(t *testing.T) {
	for _, rr := range ParseReasons() {
		if !rr.IsParseStage() {
			t.Errorf("%v should be parse stage", rr)
		}
	}
	for _, rr := range ComparabilityReasons() {
		if rr.IsParseStage() {
			t.Errorf("%v should not be parse stage", rr)
		}
	}
	if RejectNone.IsParseStage() {
		t.Error("RejectNone is not a parse-stage reason")
	}
}

func TestReasonStrings(t *testing.T) {
	seen := map[string]bool{}
	all := append(ParseReasons(), ComparabilityReasons()...)
	all = append(all, RejectNone)
	for _, rr := range all {
		s := rr.String()
		if s == "" || seen[s] {
			t.Errorf("reason %d has empty or duplicate string %q", int(rr), s)
		}
		seen[s] = true
	}
	if got := RejectReason(99).String(); got != "RejectReason(99)" {
		t.Errorf("unknown reason string = %q", got)
	}
}

// referenceSplitWords is the word split ambiguousCPUName used before it
// scanned in place: a rune loop that builds each word by concatenation,
// so an invalid byte becomes U+FFFD inside its word.
func referenceSplitWords(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\t' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func referenceContainsWord(s, w string) bool {
	for _, f := range referenceSplitWords(s) {
		if f == w {
			return true
		}
	}
	return false
}

// FuzzAmbiguousCPUName: the in-place word scan finds "or" and "/"
// exactly where the rune-loop split did, on any string, invalid UTF-8
// included.
func FuzzAmbiguousCPUName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		for _, w := range []string{"or", "/"} {
			if got, want := containsWord(name, w), referenceContainsWord(name, w); got != want {
				t.Fatalf("containsWord(%q, %q) = %v, rune-loop split says %v", name, w, got, want)
			}
		}
	})
}
