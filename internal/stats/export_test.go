package stats

// The reference implementations, for the corpus test in package
// stats_test (which can import the analysis layer).
var (
	SortQuantile   = sortQuantile
	SortSenSlope   = sortSenSlope
	PairKendallTau = pairKendallTau
	SameFloat      = sameFloat
)
