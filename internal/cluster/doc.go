// Package cluster groups machine configurations of the SPEC Power
// corpus: it turns parsed runs into standardized numeric feature
// vectors (Extract) and partitions them with seeded k-means++ (KMeans)
// or hierarchical agglomerative clustering under the Lance–Williams
// update (HAC), in the spirit of the phenotype and outbreak-detection
// clustering the source paper's related work builds on.
//
// A Matrix of up to maxDistRows (1024) rows computes its pairwise row
// distances once, on first use, and every Silhouette and HAC over it
// reads that one table; the registered analyses memoize the matrix per
// dataset and feature selection (analysis.Derive), so one table serves
// every partition, every k of a sweep, and HAC. Larger matrices compute
// each distance where it is needed, with identical results. Silhouette
// sums four rows of the table side by side. KMeans keeps Hamerly bounds
// per row and rescans only the rows they cannot prove stay put; its
// result is exactly that of a full scan every round. The registered
// analyses keep one memo of k-means fits per dataset, feature set and
// seed, and fit each k once: a k sweep fits only the k values it lacks,
// drawing one k-means++ seeding at the largest of them (the seeding for
// any smaller k is a prefix of it) and running each k as its own task
// on the worker pool, largest first: a Lloyd fit from a copy of that
// prefix, then its silhouette. A k-means partition, auto-k or explicit,
// adopts the fit at its k and reports that fit's Lloyd rounds as kernel
// events, so an auto-k partition does not refit the k its sweep chose.
// Every fit equals a separate KMeans and Silhouette at that k.
//
// Quality is judged by within-cluster SSE and the silhouette score
// (Silhouette, AutoK), and clusters are summarized into
// human-readable phenotypes (Profiles): dominant vendor, median
// cores/score, year range. The pinned corpus analyses — "clusters",
// "cluster-profiles", "cluster-sweep" — are registered with the
// analysis registry in this package's init, so they flow through
// core.Engine, specanalyze, and specserve like every other analysis.
//
// Everything is deterministic under a seed: the k-means RNG is private
// (never the global rand), parallel phases write disjoint indexes, and
// all reductions run in fixed index order, so equal seeds and corpora
// give byte-identical JSON.
package cluster
