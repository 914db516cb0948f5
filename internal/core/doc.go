// Package core is the public façade of the specpower-trends library. It
// ties the synthetic corpus generator, the result-file writer/parser,
// and the longitudinal analyses together behind one streaming Engine:
// a pluggable corpus Source feeds the classification funnel
// incrementally, and every named analysis from the registry is computed
// lazily, at most once per engine and parameterization.
//
// Typical use:
//
//	eng := core.New()                       // default synthetic corpus
//	ds, _ := eng.Dataset()                  // 1017 → 960 → 676 funnel
//	fig3, _ := core.AnalysisAs[analysis.TrendFigure](eng, "fig3")
//
// or, over a corpus directory, selecting analyses by name:
//
//	eng := core.New(core.WithSource(core.DirSource{Dir: dir}),
//		core.WithWorkers(8))
//	results, _ := eng.Run("fig3", "funnel") // lazy, memoized
//	_ = eng.WriteJSONRequests(os.Stdout,    // machine-readable output
//		core.Request{Name: "trends"})
//
// DirSource streams: result files are parsed by a bounded worker pool
// and classified as they arrive, so corpora far larger than the
// paper's 1017 runs never need to fit in memory at once. CachedSource
// adds a gob parse cache next to the corpus so repeat ingestion skips
// the parser, and FilterSource/MergeSource compose sources into corpus
// scenarios (per-vendor slices, merged directories, …). Run,
// WriteJSONRequests and WriteReport fan independent analyses out across
// the same worker bound, so a full report costs max(analysis) rather
// than sum(analysis).
//
// EncodeJSON is the module's one indented JSON encoder:
// WriteJSONRequests, specserve's response bodies and specparse
// -format json all write its bytes.
//
// Core knows no analysis's result type. Each registration carries its
// own text renderer (analysis.Text); WriteAnalysisText prints one
// result through it (indented JSON when there is none), and
// WriteReport walks one table of report sections, rendering each
// named analysis the same way. The clustering analyses register in
// repro/internal/cluster, which a program rendering the report must
// import.
//
// Analyses that declare typed parameters (analysis.Schema) are selected
// with per-request values through core.Request, each distinct
// parameterization memoized independently:
//
//	reg, _ := analysis.Lookup("clusters")
//	params, _ := reg.Params.Resolve(map[string]string{"k": "5"})
//	results, _ := eng.RunRequests(core.Request{Name: "clusters", Params: params})
package core
