package cluster

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/analysis"
)

// Defaults of the registered analyses' parameter schemas. A request
// that supplies none of the knobs computes exactly what the pinned
// registrations of old did (seed 14, auto-k over 2…8), so the default
// output is stable across the parameterization of the API. The seed
// mirrors the default synthetic corpus seed.
const (
	DefaultSeed = 14
	autoKMin    = 2
	autoKMax    = 8
	sweepKMax   = 10
)

// Assignment maps one run to its cluster, in corpus order.
type Assignment struct {
	ID      string `json:"id"`
	Cluster int    `json:"cluster"`
}

// Result is the "clusters" analysis outcome: the labeled partition
// plus its quality metrics. K = 0 means the corpus slice was too small
// to cluster (fewer than two comparable runs).
type Result struct {
	Algo        string       `json:"algo"`
	K           int          `json:"k"`
	Features    []string     `json:"features"`
	SSE         float64      `json:"sse"`
	Silhouette  float64      `json:"silhouette"`
	Sizes       []int        `json:"sizes"`
	Assignments []Assignment `json:"assignments"`
}

// newResult assembles a Result from a labeled partition and its
// silhouette: sizes, SSE against the label centroids, and per-run
// assignments in row order.
func newResult(algo string, m *Matrix, labels []int, k int, silhouette float64) Result {
	res := Result{
		Algo:        algo,
		K:           k,
		Features:    m.Features,
		Silhouette:  silhouette,
		Sizes:       make([]int, k),
		Assignments: make([]Assignment, len(m.Runs)),
	}
	for i, r := range m.Runs {
		res.Sizes[labels[i]]++
		res.Assignments[i] = Assignment{ID: r.ID, Cluster: labels[i]}
	}
	res.SSE = SSE(m, labels, Centroids(m, labels, k))
	return res
}

// writeResult renders a "clusters" result as terminal text.
func writeResult(w io.Writer, res Result) {
	fmt.Fprintf(w, "%s over [%s]\n", res.Algo, strings.Join(res.Features, ", "))
	fmt.Fprintf(w, "k=%d  silhouette=%.3f  within-SSE=%.1f\n", res.K, res.Silhouette, res.SSE)
	for c, size := range res.Sizes {
		fmt.Fprintf(w, "  cluster %d: %4d runs\n", c, size)
	}
	if res.K == 0 {
		fmt.Fprintln(w, "(corpus too small to cluster)")
	}
}

// Validation hooks shared by the schema declarations.

func intAtLeast(low int64) func(any) error {
	return func(v any) error {
		if n := v.(int64); n < low {
			return fmt.Errorf("%d below minimum %d", n, low)
		}
		return nil
	}
}

func floatAtLeast(low float64) func(any) error {
	return func(v any) error {
		f := v.(float64)
		// ParseFloat admits "NaN" and "Inf"; both slip past every
		// downstream range check (NaN compares false with everything),
		// so reject non-finite values here, at the 400 boundary.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%g is not a finite number", f)
		}
		if f < low {
			return fmt.Errorf("%g below minimum %g", f, low)
		}
		return nil
	}
}

// featuresParam declares the feature-subset knob, validated against
// FeatureNames at resolve time so a typo is a 400, not a computation
// failure deep in Extract.
func featuresParam() analysis.Param {
	return analysis.Param{
		Name: "features", Kind: analysis.KindStringList,
		Description: "feature subset (default all: " + strings.Join(FeatureNames(), ",") + ")",
		Validate: func(v any) error {
			_, err := selectFeatures(v.([]string))
			return err
		},
	}
}

func seedParam() analysis.Param {
	return analysis.Param{
		Name: "seed", Kind: analysis.KindInt, Default: DefaultSeed,
		Description: "k-means++ RNG seed",
	}
}

func sweepRangeParams(kmaxDefault int) []analysis.Param {
	return []analysis.Param{
		{Name: "kmin", Kind: analysis.KindInt, Default: autoKMin,
			Description: "sweep lower bound", Validate: intAtLeast(2)},
		{Name: "kmax", Kind: analysis.KindInt, Default: kmaxDefault,
			Description: "sweep upper bound (clamped to the corpus size)",
			Validate:    intAtLeast(2)},
	}
}

// partitionSchema declares the knobs of the "clusters" and
// "cluster-profiles" analyses — both describe the same partition, so
// they share one schema (and, through the dataset's derived-state memo,
// one computation per parameterization). The canonical identity is
// schema-wide: a knob the selected algorithm happens to ignore
// (linkage under kmeans, say) still keys a distinct scenario. Equal
// canonical strings always mean equal computations; the converse is
// deliberately not promised — collapsing it would couple the identity
// to per-algorithm data flow.
func partitionSchema() analysis.Schema {
	s := analysis.Schema{
		{Name: "k", Kind: analysis.KindInt, Default: 0,
			Description: "cluster count (0 = auto-select by silhouette over kmin…kmax)",
			Validate:    intAtLeast(0)},
		{Name: "algo", Kind: analysis.KindEnum, Enum: []string{"kmeans", "hac", "minibatch"},
			Default: "kmeans", Description: "clustering algorithm"},
		{Name: "batch", Kind: analysis.KindInt, Default: 128,
			Description: "minibatch rows sampled per iteration",
			Validate:    intAtLeast(1)},
		{Name: "linkage", Kind: analysis.KindEnum,
			Enum:    []string{"average", "single", "complete"},
			Default: "average", Description: "hac cluster-distance criterion"},
		{Name: "cut", Kind: analysis.KindFloat, Default: 0.0,
			Description: "hac dendrogram distance threshold (overrides k)",
			Validate:    floatAtLeast(0)},
		seedParam(),
		featuresParam(),
	}
	return append(s, sweepRangeParams(autoKMax)...)
}

func sweepSchema() analysis.Schema {
	s := analysis.Schema{seedParam(), featuresParam()}
	return append(s, sweepRangeParams(sweepKMax)...)
}

// partition is the shared outcome of one parameterized clustering: the
// feature matrix plus the labeled partition and its silhouette. k == 0
// means the corpus slice had fewer than two comparable runs (or the
// auto-k sweep had no room after clamping) — nothing to cluster, but
// not an error.
type partition struct {
	m      *Matrix
	algo   string // reported label: "kmeans++" or "hac/<linkage>"
	k      int
	labels []int
	sil    float64
}

// partitionFor computes (or recalls) the partition the params describe
// over the dataset's comparable runs. It is memoized on the dataset, so
// "clusters" and "cluster-profiles" — fanned out concurrently by
// Engine.RunRequests — share one computation per parameterization.
func partitionFor(ds *analysis.Dataset, params analysis.Params) (*partition, error) {
	return analysis.Derive(ds, "partition|"+params.Canonical(), func() (*partition, error) {
		return computePartition(ds, params)
	})
}

// matrixFor extracts (or recalls) the feature matrix of the dataset's
// comparable runs under the given feature selection. One matrix, and
// with it one pairwise distance table, serves every partition, every k
// of every sweep and every HAC over the dataset and selection.
func matrixFor(ds *analysis.Dataset, features []string) (*Matrix, error) {
	return analysis.Derive(ds, "matrix|"+strings.Join(features, ","), func() (*Matrix, error) {
		return Extract(ds.Comparable, Options{Features: features})
	})
}

// fitsFor recalls (or starts) the k-means fits of m under seed. Equal
// feature selections over one dataset produce equal matrices
// (extraction is deterministic), so one memo entry per (feature set,
// seed) holds every k fitted so far: the auto-k sweep of a partition,
// an explicit-k partition and the "cluster-sweep" analysis share each
// fit across their different schemas, and each k is fitted once. There
// is no entry per k: the memo is small, and the matrix entry, with its
// distance table, must stay resident.
func fitsFor(ds *analysis.Dataset, m *Matrix, seed int64) *fits {
	key := fmt.Sprintf("fits|%s|%d", strings.Join(m.Features, ","), seed)
	fs, _ := analysis.Derive(ds, key, func() (*fits, error) {
		return newFits(m, seed), nil
	})
	return fs
}

const (
	algoKMeans    = "kmeans++"
	algoMiniBatch = "minibatch"
)

// kmeansObserver adapts the dataset's kernel observer to the k-means
// per-iteration callback; nil when the dataset is unobserved. The
// adapter only forwards deterministic counts through a dynamic call —
// no clocks, no I/O — so registered analyses stay determinism-clean.
func kmeansObserver(ds *analysis.Dataset) func(iter, moved int, converged bool) {
	obs := ds.Kernel
	if obs == nil {
		return nil
	}
	return func(iter, moved int, converged bool) {
		obs(analysis.KernelEvent{Kernel: "kmeans", Event: "iteration",
			Index: iter, Moved: moved, Converged: converged})
	}
}

// minibatchObserver forwards mini-batch iteration events to the
// dataset's kernel observer; nil when the dataset is unobserved.
func minibatchObserver(ds *analysis.Dataset) func(iter, moved int, converged bool) {
	obs := ds.Kernel
	if obs == nil {
		return nil
	}
	return func(iter, moved int, converged bool) {
		obs(analysis.KernelEvent{Kernel: "minibatch", Event: "iteration",
			Index: iter, Moved: moved, Converged: converged})
	}
}

// hacObserver is kmeansObserver's HAC sibling, forwarding merge-batch
// events.
func hacObserver(ds *analysis.Dataset) func(batch, merges int, maxDist float64) {
	obs := ds.Kernel
	if obs == nil {
		return nil
	}
	return func(batch, merges int, maxDist float64) {
		obs(analysis.KernelEvent{Kernel: "hac", Event: "merge-batch",
			Index: batch, Merges: merges, MaxDist: maxDist})
	}
}

func computePartition(ds *analysis.Dataset, p analysis.Params) (*partition, error) {
	m, err := matrixFor(ds, p.Strings("features"))
	if err != nil {
		return nil, err
	}
	algo := p.Str("algo")
	label := algoKMeans
	switch algo {
	case "hac":
		label = "hac/" + p.Str("linkage")
	case "minibatch":
		label = algoMiniBatch
	}
	part := &partition{m: m, algo: label}
	n := len(m.Rows)
	if n < 2 {
		return part, nil // nothing to cluster; degrade, don't error
	}
	k := p.Int("k")
	if k > n {
		return nil, analysis.BadParams("k = %d exceeds the %d clusterable runs", k, n)
	}
	workers := ds.Workers
	switch algo {
	case "kmeans":
		fs := fitsFor(ds, m, p.Int64("seed"))
		if k == 0 {
			kmin, kmax, err := sweepRange(p, n)
			if err != nil {
				return nil, err
			}
			if kmax < kmin {
				return part, nil // corpus smaller than the sweep floor
			}
			k = AutoK(fs.sweep(kmin, kmax, workers))
		}
		// The partition adopts the fit, which the sweep may have made,
		// and reports its Lloyd rounds as the KMeans run it stands for.
		f := fs.fit(k, nil, workers)
		f.replay(kmeansObserver(ds))
		part.k, part.labels, part.sil = k, f.labels, f.sil
		return part, nil
	case "hac":
		cut := p.Float("cut")
		if k == 0 && cut == 0 {
			return nil, analysis.BadParams("algo=hac needs k or cut")
		}
		lk, err := ParseLinkage(p.Str("linkage"))
		if err != nil {
			return nil, err // unreachable: the enum admits only valid spellings
		}
		res, err := HAC(m, HACOptions{Linkage: lk, K: k, Cut: cut, Workers: workers,
			OnMergeBatch: hacObserver(ds)})
		if err != nil {
			return nil, err
		}
		part.k, part.labels = res.K, res.Labels
		part.sil = Silhouette(m, res.Labels, res.K, workers)
		return part, nil
	case "minibatch":
		seed := p.Int64("seed")
		if k == 0 {
			kmin, kmax, err := sweepRange(p, n)
			if err != nil {
				return nil, err
			}
			if kmax < kmin {
				return part, nil // corpus smaller than the sweep floor
			}
			k = AutoK(fitsFor(ds, m, seed).sweep(kmin, kmax, workers))
		}
		res, err := MiniBatch(m, MiniBatchOptions{K: k, Seed: seed, BatchSize: p.Int("batch"),
			Workers: workers, OnIteration: minibatchObserver(ds)})
		if err != nil {
			return nil, err
		}
		part.k, part.labels = res.K, res.Labels
		part.sil = Silhouette(m, res.Labels, res.K, workers)
		return part, nil
	default:
		return nil, analysis.BadParams("unknown algo %q", algo)
	}
}

// sweepRange reads kmin/kmax, rejects an inverted request, and clamps
// kmax to the corpus size (a small scope must degrade, not error).
func sweepRange(p analysis.Params, rows int) (kmin, kmax int, err error) {
	kmin, kmax = p.Int("kmin"), p.Int("kmax")
	if kmax < kmin {
		return 0, 0, analysis.BadParams("kmax = %d below kmin = %d", kmax, kmin)
	}
	return kmin, min(kmax, rows), nil
}

func init() {
	analysis.RegisterParams("clusters",
		"machine-configuration clusters (k-means++, auto-k by silhouette)",
		partitionSchema(),
		func(ds *analysis.Dataset, p analysis.Params) (any, error) {
			part, err := partitionFor(ds, p)
			if err != nil {
				return nil, err
			}
			if part.k == 0 {
				return Result{Algo: part.algo, Features: part.m.Features,
					Sizes: []int{}, Assignments: []Assignment{}}, nil
			}
			return newResult(part.algo, part.m, part.labels, part.k, part.sil), nil
		}, analysis.Reads(analysis.InputComparable), analysis.Text(writeResult))
	analysis.RegisterParams("cluster-profiles",
		"per-cluster phenotypes: dominant vendor, median cores/score, year range",
		partitionSchema(),
		func(ds *analysis.Dataset, p analysis.Params) (any, error) {
			part, err := partitionFor(ds, p)
			if err != nil {
				return nil, err
			}
			if part.k == 0 {
				return ProfileSet{Algo: part.algo, Profiles: []Profile{}}, nil
			}
			return ProfileSet{
				Algo:       part.algo,
				K:          part.k,
				Silhouette: part.sil,
				Profiles:   Profiles(part.m.Runs, part.labels, part.k),
			}, nil
		}, analysis.Reads(analysis.InputComparable),
		analysis.Text(func(w io.Writer, ps ProfileSet) { fmt.Fprint(w, ps.String()) }))
	analysis.RegisterParams("cluster-sweep",
		"k sweep: within-cluster SSE and silhouette for k = 2…10 (elbow curve)",
		sweepSchema(),
		func(ds *analysis.Dataset, p analysis.Params) (any, error) {
			m, err := matrixFor(ds, p.Strings("features"))
			if err != nil {
				return nil, err
			}
			kmin, kmax, err := sweepRange(p, len(m.Rows))
			if err != nil {
				return nil, err
			}
			if kmax < kmin {
				return []SweepPoint{}, nil
			}
			return fitsFor(ds, m, p.Int64("seed")).sweep(kmin, kmax, ds.Workers), nil
		}, analysis.Reads(analysis.InputComparable),
		analysis.Text(func(w io.Writer, pts []SweepPoint) { fmt.Fprint(w, SweepTable(pts)) }))
}
