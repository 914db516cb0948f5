package model

import "fmt"

// RejectReason enumerates why a run is excluded, in the order the paper
// applies its checks. The first group ("parse-consistency") reduces the
// raw corpus of 1017 submissions to 960 parsed runs; the second group
// ("comparability") reduces those to the 676 runs analysed.
type RejectReason int

// Reject reasons, in pipeline order.
const (
	// RejectNone means the run passed every check.
	RejectNone RejectReason = iota

	// Parse-consistency checks (1017 → 960).

	// RejectNotAccepted marks runs not accepted by SPEC (paper: 40).
	RejectNotAccepted
	// RejectAmbiguousDate marks runs whose dates disagree with each
	// other irreconcilably (paper: 3).
	RejectAmbiguousDate
	// RejectImplausibleDate marks dates outside the plausible window,
	// e.g. hardware available years after the test (paper: 4).
	RejectImplausibleDate
	// RejectAmbiguousCPUName marks CPU fields naming several distinct
	// models (paper: 3).
	RejectAmbiguousCPUName
	// RejectMissingNodeCount marks runs that omit the node count (paper: 1).
	RejectMissingNodeCount
	// RejectInconsistentCoreThread marks runs whose reported totals
	// contradict sockets×cores×threads (paper: 5).
	RejectInconsistentCoreThread
	// RejectImplausibleCoreThread marks physically impossible topology
	// values (paper: 1).
	RejectImplausibleCoreThread

	// Comparability filters (960 → 676).

	// RejectNonX86Vendor marks CPUs made by neither Intel nor AMD (paper: 9).
	RejectNonX86Vendor
	// RejectNonServerCPU marks parts marketed neither as Xeon, Opteron,
	// nor EPYC (paper: 6).
	RejectNonServerCPU
	// RejectMultiNodeOrBigSMP marks runs with more than one node or more
	// than two sockets (paper: 269).
	RejectMultiNodeOrBigSMP
)

// String names the reason for reports and tests.
func (rr RejectReason) String() string {
	switch rr {
	case RejectNone:
		return "accepted"
	case RejectNotAccepted:
		return "not accepted by SPEC"
	case RejectAmbiguousDate:
		return "ambiguous dates"
	case RejectImplausibleDate:
		return "implausible dates"
	case RejectAmbiguousCPUName:
		return "ambiguous CPU name"
	case RejectMissingNodeCount:
		return "missing node count"
	case RejectInconsistentCoreThread:
		return "inconsistent core/thread counts"
	case RejectImplausibleCoreThread:
		return "implausible core/thread counts"
	case RejectNonX86Vendor:
		return "CPU neither Intel nor AMD"
	case RejectNonServerCPU:
		return "not a server/workstation CPU"
	case RejectMultiNodeOrBigSMP:
		return "more than one node or more than two sockets"
	default:
		return fmt.Sprintf("RejectReason(%d)", int(rr))
	}
}

// MarshalText renders the reason by name, so JSON funnels are readable
// without knowledge of the Go enum.
func (rr RejectReason) MarshalText() ([]byte, error) {
	return []byte(rr.String()), nil
}

// IsParseStage reports whether the reason belongs to the
// parse-consistency group (applied before the 960-run dataset).
func (rr RejectReason) IsParseStage() bool {
	return rr >= RejectNotAccepted && rr <= RejectImplausibleCoreThread
}

// ParseReasons lists the parse-consistency reasons in pipeline order.
func ParseReasons() []RejectReason {
	return []RejectReason{
		RejectNotAccepted, RejectAmbiguousDate, RejectImplausibleDate,
		RejectAmbiguousCPUName, RejectMissingNodeCount,
		RejectInconsistentCoreThread, RejectImplausibleCoreThread,
	}
}

// ComparabilityReasons lists the comparability reasons in pipeline order.
func ComparabilityReasons() []RejectReason {
	return []RejectReason{
		RejectNonX86Vendor, RejectNonServerCPU, RejectMultiNodeOrBigSMP,
	}
}

// maxPlausibleCoresPerSocket bounds topology sanity. The densest x86
// server parts in the corpus period top out below 200 cores per socket.
const maxPlausibleCoresPerSocket = 256

// CheckParseConsistency applies the parse-stage checks in order and
// returns the first failing reason, or RejectNone.
func CheckParseConsistency(r *Run) RejectReason {
	if !r.Accepted {
		return RejectNotAccepted
	}
	if reasonForDates(r) != RejectNone {
		return reasonForDates(r)
	}
	if ambiguousCPUName(r.CPUName) {
		return RejectAmbiguousCPUName
	}
	if r.Nodes <= 0 {
		return RejectMissingNodeCount
	}
	if rr := checkTopology(r); rr != RejectNone {
		return rr
	}
	return RejectNone
}

func reasonForDates(r *Run) RejectReason {
	// All four dates must parse; HW availability is the analysis key.
	if !r.HWAvail.Valid() || !r.TestDate.Valid() {
		return RejectAmbiguousDate
	}
	// Implausible: hardware generally available long after the test was
	// run (> 18 months), or dates outside the benchmark's lifetime.
	if r.HWAvail.Index() > r.TestDate.Index()+18 {
		return RejectImplausibleDate
	}
	if r.HWAvail.Year < 1995 || r.HWAvail.Year > 2100 {
		return RejectImplausibleDate
	}
	if r.SubmissionDate.Valid() && r.SubmissionDate.Before(r.TestDate) {
		return RejectImplausibleDate
	}
	return RejectNone
}

// ambiguousCPUName reports whether the CPU field names more than one
// distinct model (vendors occasionally list alternates, e.g.
// "Intel Xeon X5570 or X5560").
func ambiguousCPUName(name string) bool {
	return containsWord(name, "or") || containsWord(name, "/")
}

// containsWord reports whether the non-empty w is one of s's words: the
// maximal runs of bytes other than ' ' and '\t'. It scans s in place,
// so classifying a run allocates nothing.
func containsWord(s, w string) bool {
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' {
			continue
		}
		if s[start:i] == w {
			return true
		}
		start = i + 1
	}
	return false
}

func checkTopology(r *Run) RejectReason {
	if r.SocketsPerNode <= 0 || r.CoresPerSocket <= 0 || r.ThreadsPerCore <= 0 {
		return RejectImplausibleCoreThread
	}
	if r.CoresPerSocket > maxPlausibleCoresPerSocket || r.ThreadsPerCore > 8 {
		return RejectImplausibleCoreThread
	}
	expCores := r.Nodes * r.SocketsPerNode * r.CoresPerSocket
	expThreads := expCores * r.ThreadsPerCore
	if r.TotalCores != expCores || r.TotalThreads != expThreads {
		return RejectInconsistentCoreThread
	}
	return RejectNone
}

// CheckComparability applies the paper's comparability filters in order
// and returns the first failing reason, or RejectNone. It assumes the run
// already passed CheckParseConsistency.
func CheckComparability(r *Run) RejectReason {
	if r.CPUVendor != VendorIntel && r.CPUVendor != VendorAMD {
		return RejectNonX86Vendor
	}
	if !r.CPUClass.IsServerClass() {
		return RejectNonServerCPU
	}
	if r.Nodes > 1 || r.SocketsPerNode > 2 {
		return RejectMultiNodeOrBigSMP
	}
	return RejectNone
}

// Classify runs both check groups and returns the first failing reason.
func Classify(r *Run) RejectReason {
	if rr := CheckParseConsistency(r); rr != RejectNone {
		return rr
	}
	return CheckComparability(r)
}
