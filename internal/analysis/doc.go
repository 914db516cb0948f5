// Package analysis implements the paper's longitudinal study: the
// two-stage filter funnel (Section II), the per-figure analyses
// (Figures 1–6), and the in-text statistics (submission rates, vendor
// and OS shares, power growth factors, top-efficiency ranking, and the
// post-2021 feature comparison).
//
// Every public function takes parsed model.Run slices (usually via
// Dataset) and returns plain structs that the plot package renders and
// the bench harness prints, so the same code path regenerates each
// table and figure of the paper. Per-run tables leave as CSV through
// WriteRunsCSV.
package analysis
