package analysis

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/model"
)

// ReasonCount is one row of the filter funnel.
type ReasonCount struct {
	Reason model.RejectReason
	Count  int
}

// Funnel records how the corpus shrinks through the two filter stages,
// mirroring the paper's Section II accounting.
type Funnel struct {
	Raw        int // downloaded result files (paper: 1017)
	Parsed     int // after parse-consistency checks (paper: 960)
	Comparable int // after comparability filters (paper: 676)
	// ParseStage and ComparabilityStage list per-reason removals in
	// pipeline order.
	ParseStage         []ReasonCount
	ComparabilityStage []ReasonCount
}

// String renders the funnel as a small report table.
func (f Funnel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "raw results:            %4d\n", f.Raw)
	for _, rc := range f.ParseStage {
		fmt.Fprintf(&b, "  - %-38s %4d\n", rc.Reason, rc.Count)
	}
	fmt.Fprintf(&b, "successfully parsed:    %4d\n", f.Parsed)
	for _, rc := range f.ComparabilityStage {
		fmt.Fprintf(&b, "  - %-38s %4d\n", rc.Reason, rc.Count)
	}
	fmt.Fprintf(&b, "comparable (analysed):  %4d\n", f.Comparable)
	return b.String()
}

// KernelEvent is one progress event emitted by a compute kernel — a
// k-means Lloyd iteration, a HAC merge batch — while an analysis
// computes. Events carry deterministic facts about the computation
// (counts, indices, distances), never timings: the kernel's output must
// stay a pure function of (dataset, params), so any clock reads happen
// in the observer that receives the event, outside the registered
// analysis's call graph.
type KernelEvent struct {
	// Kernel names the emitting kernel ("kmeans", "hac").
	Kernel string
	// Event names the step kind ("iteration", "merge-batch").
	Event string
	// Index is the 1-based step number within the kernel run.
	Index int
	// Moved counts the labels reassigned this step (k-means).
	Moved int
	// Merges counts the dendrogram merges in this batch (HAC).
	Merges int
	// MaxDist is the largest merge distance in this batch (HAC).
	MaxDist float64
	// Converged reports whether the kernel stabilized at this step
	// (k-means: no label moved).
	Converged bool
}

// KernelObserver receives kernel progress events. Implementations must
// be safe for concurrent use (kernels may run under a worker pool) and
// must not influence the computation — observers are for tracing and
// metrics, and the determinism contract holds with or without one.
type KernelObserver func(KernelEvent)

// Dataset holds the corpus at each pipeline stage.
type Dataset struct {
	// Raw is every run handed in.
	Raw []*model.Run
	// Parsed is Raw minus parse-consistency rejects (Figure 1 uses this).
	Parsed []*model.Run
	// Comparable is Parsed minus comparability rejects — the 676-run set
	// every trend analysis uses.
	Comparable []*model.Run
	// Funnel is the removal accounting.
	Funnel Funnel
	// Workers bounds the internal parallelism of analyses computed from
	// this dataset (0 = GOMAXPROCS). The engine sets it from its own
	// worker option, so a caller capping the engine caps the analyses
	// too.
	Workers int
	// Kernel, when non-nil, receives kernel progress events from
	// analyses computed over this dataset. The engine threads a
	// per-request observer in via WithKernel; analyses only ever invoke
	// the callback (a dynamic call), keeping their own call graphs free
	// of clocks and I/O.
	Kernel KernelObserver

	// id anchors the dataset's derived-state memo across the shallow
	// copies WithKernel makes; see Derive.
	id *datasetID
}

// derivedCap bounds the entries one dataset's derived-state memo keeps;
// the oldest is evicted first and simply recomputes if asked again.
const derivedCap = 8

// datasetID is a dataset's identity for derived state: every Snapshot
// gets a fresh one, every WithKernel copy shares its original's.
type datasetID struct {
	mu      sync.Mutex
	derived []*derivedEntry // insertion order, at most derivedCap
}

type derivedEntry struct {
	key  string
	once sync.Once
	val  any
	err  error
}

// Derive computes (or recalls) state derived from ds under key — a
// clustering partition, a k sweep — so analyses that need the same
// intermediate share one computation per dataset. Each key computes
// once; concurrent callers of one key wait for that computation, and an
// error is remembered like a value. f must be a pure function of
// (ds, key): the memo lives and dies with the dataset, so a later
// corpus generation starts empty. A literally constructed dataset (no
// builder identity) has no memo and just calls f.
func Derive[T any](ds *Dataset, key string, f func() (T, error)) (T, error) {
	id := ds.id
	if id == nil {
		return f()
	}
	id.mu.Lock()
	var e *derivedEntry
	for _, c := range id.derived {
		if c.key == key {
			e = c
			break
		}
	}
	if e == nil {
		e = &derivedEntry{key: key}
		if len(id.derived) == derivedCap {
			id.derived = append(id.derived[:0], id.derived[1:]...)
		}
		id.derived = append(id.derived, e)
	}
	id.mu.Unlock()
	e.once.Do(func() { e.val, e.err = f() })
	v, _ := e.val.(T)
	return v, e.err
}

// WithKernel returns a shallow copy of the dataset with the kernel
// observer attached — same corpus slices, same derived-state memo. The
// receiver is never mutated: datasets are shared across concurrent
// analyses, and the observer is per-request state.
func (d *Dataset) WithKernel(obs KernelObserver) *Dataset {
	c := *d
	c.Kernel = obs
	return &c
}

// BuildDataset classifies every run and splits the corpus into the
// pipeline stages. It is the batch form of DatasetBuilder.
func BuildDataset(runs []*model.Run) *Dataset {
	b := NewDatasetBuilder()
	for _, r := range runs {
		b.Add(r)
	}
	return b.Dataset()
}
