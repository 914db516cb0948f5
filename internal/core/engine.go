package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/analysis"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/speccpu"
	"repro/internal/synth"
)

// Engine is the library's entry point: a corpus source plus a cache of
// derived analyses. Construction is cheap — nothing is generated,
// parsed, or classified until the first Dataset, Analysis, Run, or
// WriteReport call, and every analysis is computed at most once per
// engine and parameterization.
//
//	eng := core.New(core.WithSource(core.DirSource{Dir: "corpus"}),
//		core.WithWorkers(8))
//	fig3, err := core.AnalysisAs[analysis.TrendFigure](eng, "fig3")
type Engine struct {
	src     Source
	workers int
	hook    Hook

	dsOnce sync.Once
	dsDone atomic.Bool
	ds     atomic.Pointer[analysis.Dataset]
	dsErr  error

	// builder survives ingestion so Append can extend the classified
	// corpus incrementally; appendMu serializes appends (the builder is
	// single-writer) while readers keep loading immutable snapshots
	// from ds.
	builder  *analysis.DatasetBuilder
	appendMu sync.Mutex

	mu         sync.Mutex
	memos      map[memoKey]*memo
	paramOrder []memoKey // non-default keys in insertion order, for eviction
	report     *memo     // the rendered text report; nil until asked, dropped by any append

	memoHits   atomic.Int64
	memoMisses atomic.Int64
}

// memoKey identifies one cached computation: the analysis name plus the
// canonical string of its resolved parameters ("" = all defaults).
// Keying by the canonical form — not the raw request — means ?seed=14
// spelled out and omitted share one entry, while every distinct
// parameterization gets its own.
type memoKey struct {
	name   string
	params string
}

// paramMemoLimit bounds the resident non-default parameterizations per
// engine. Parameter values are request inputs — on a served engine,
// client-controlled — so without a bound a scan over ?seed=1,2,3,…
// would grow the memo map without limit. Default-parameter entries
// (the fixed registry names the report renders) are never evicted;
// beyond the bound the oldest parameterized entry is dropped and a
// repeat request simply recomputes it (deterministically, so evicting
// mid-flight readers is harmless — they keep their own result).
const paramMemoLimit = 512

// memo is one lazily computed analysis result plus, once a caller
// asks for it through AnalysisRendered, the rendered form of that
// result. Both live and die together: the rendering shares the
// entry's paramMemoLimit slot, its eviction order and its
// stage-aware invalidation, so no second cache needs keeping in step.
type memo struct {
	once sync.Once
	val  any
	err  error

	renderOnce sync.Once
	out        any
	outErr     error
}

// Option configures an Engine.
type Option func(*Engine)

// WithSource sets the corpus source (default: the paper-calibrated
// synthetic corpus).
func WithSource(s Source) Option {
	return func(e *Engine) { e.src = s }
}

// WithWorkers bounds the engine's parallelism — both the streaming
// source's parser pool and the analysis fan-out of Run, WriteJSON, and
// WriteReport (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// EventKind names one engine lifecycle event.
type EventKind int

// Engine lifecycle events. Each fires exactly once per occurrence: one
// ingest per engine and one compute per memoized computation, however
// many requests waited on them, and one hit per request that found an
// existing memo entry (computed or still in flight).
const (
	EventIngest EventKind = iota + 1
	EventCompute
	EventHit
	// EventKernel carries a count-only kernel progress event (a k-means
	// Lloyd iteration, an HAC merge batch) from a computation whose
	// request has an Owner. Kernels never read the clock.
	EventKernel
)

// Event is one engine lifecycle event, delivered to the engine's Hook.
type Event struct {
	Kind EventKind
	// Owner is Request.Owner of the request that did the work — the
	// sync.Once winner for ingestion, the memo-miss request for compute
	// — so a per-request record shows what its request paid for, never
	// work it waited on. Nil for work no request owns.
	Owner        any
	Name, Params string // compute and hit: the analysis
	// Ingest: the source, the runs it delivered, and its per-part
	// boundaries when it decomposes (see Parted).
	Source string
	Runs   int
	Parts  []IngestPart
	// Start and End bound ingest and compute; the compute span excludes
	// any ingestion the computation was first to trigger.
	Start, End time.Time
	Err        error
	Kernel     analysis.KernelEvent
}

// Hook receives every engine event. It must be safe for concurrent use:
// analyses compute in parallel.
type Hook func(Event)

// WithHook installs the engine's lifecycle hook.
func WithHook(h Hook) Option {
	return func(e *Engine) { e.hook = h }
}

// IngestPart is one source's share of a merged corpus ingestion.
type IngestPart struct {
	Source     string
	Start, End time.Time
	Runs       int
}

// WithSeed selects the synthetic corpus with the given generation seed;
// shorthand for WithSource(SynthSource{…}) when only the seed varies.
func WithSeed(seed int64) Option {
	return func(e *Engine) {
		opt := synth.DefaultOptions()
		opt.Seed = seed
		e.src = SynthSource{Options: opt}
	}
}

// New builds an Engine. With no options it studies the default
// synthetic corpus, the in-memory equivalent of the paper's 1017
// downloaded result files.
func New(opts ...Option) *Engine {
	e := &Engine{
		src:   SynthSource{Options: synth.DefaultOptions()},
		memos: map[memoKey]*memo{},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Dataset streams the source through the classification funnel once and
// memoizes the result. Runs are classified as they arrive (via
// analysis.DatasetBuilder), so for streaming sources ingestion overlaps
// with parsing.
func (e *Engine) Dataset() (*analysis.Dataset, error) {
	return e.dataset(nil)
}

// emit delivers ev to the hook, if one is installed.
func (e *Engine) emit(ev Event) {
	if e.hook != nil {
		e.hook(ev)
	}
}

// dataset is Dataset on behalf of owner: the goroutine that wins the
// sync.Once — the one that actually streams the corpus — reports the
// ingestion as owner's event.
func (e *Engine) dataset(owner any) (*analysis.Dataset, error) {
	e.dsOnce.Do(func() {
		defer e.dsDone.Store(true)
		ev := Event{Kind: EventIngest, Owner: owner, Source: e.src.Name(), Start: time.Now()}
		b := analysis.NewDatasetBuilder()
		ev.Parts, ev.Err = e.streamSource(b)
		ev.End = time.Now()
		if ev.Err != nil {
			e.dsErr = fmt.Errorf("core: source %s: %w", e.src.Name(), ev.Err)
			ev.Err = e.dsErr
		} else {
			e.builder = b
			snap := b.Snapshot()
			// Analyses with internal parallelism (e.g. the trend tests)
			// honor the same worker bound as the engine itself.
			snap.Workers = e.workers
			e.ds.Store(snap)
			ev.Runs = len(snap.Raw)
		}
		e.emit(ev)
	})
	return e.ds.Load(), e.dsErr
}

// streamSource drains the corpus into the builder. A source that
// decomposes (Parted) streams part by part, so the ingest event gets
// per-source boundaries; the merged stream is identical either way
// because part order is the composite's drain order.
func (e *Engine) streamSource(b *analysis.DatasetBuilder) ([]IngestPart, error) {
	yield := func(r *model.Run) error {
		b.Add(r)
		return nil
	}
	ps := sourceParts(e.src)
	if len(ps) < 2 {
		return nil, e.src.Each(e.workers, yield)
	}
	parts := make([]IngestPart, 0, len(ps))
	for _, p := range ps {
		start := time.Now()
		before := b.Len()
		err := p.Each(e.workers, yield)
		parts = append(parts, IngestPart{Source: p.Name(),
			Start: start, End: time.Now(), Runs: b.Len() - before})
		if err != nil {
			return parts, err
		}
	}
	return parts, nil
}

// IngestionFailed reports whether a completed ingestion errored,
// without triggering one: false while the source has not been streamed
// yet (or streamed successfully). Long-lived engine caches use it to
// tell a broken corpus — worth discarding the engine and retrying —
// from an analysis that legitimately errors on a healthy corpus. The
// dsDone release/acquire pair makes reading dsErr safe here without
// entering the once.
func (e *Engine) IngestionFailed() bool {
	return e.dsDone.Load() && e.dsErr != nil
}

// Runs returns the raw corpus (every run the source delivered).
func (e *Engine) Runs() ([]*model.Run, error) {
	ds, err := e.Dataset()
	if err != nil {
		return nil, err
	}
	return ds.Raw, nil
}

// UnknownAnalysisError is returned when a requested analysis name is
// not registered; it lists what is.
type UnknownAnalysisError struct {
	Name      string
	Available []string
}

func (e *UnknownAnalysisError) Error() string {
	return fmt.Sprintf("core: unknown analysis %q (available: %s)",
		e.Name, strings.Join(e.Available, ", "))
}

// Request selects one analysis computation: a registry name plus a
// resolved parameter bag. The zero Params means "all defaults" — the
// engine resolves it against the registration's schema — so
// Request{Name: "fig3"} is exactly the old by-name selection. Build
// non-default bags with reg.Params.Resolve(raw).
type Request struct {
	Name   string
	Params analysis.Params
	// Owner is an opaque value identifying who asked, handed back in
	// the Event of any work this request performs. It never affects
	// memo identity or results — two requests differing only in Owner
	// share one computation, and only the one that computes reports.
	Owner any
}

// Analysis computes one named analysis with default parameters,
// memoized per engine: the first call pays for the computation (and,
// transitively, for corpus ingestion), every later call returns the
// cached result.
func (e *Engine) Analysis(name string) (any, error) {
	return e.AnalysisRequest(Request{Name: name})
}

// AnalysisRequest computes one parameterized analysis, memoized per
// (name, canonical params): requesting clusters with k=3 and k=5 holds
// two independent cache entries, while two spellings of the same
// parameterization — including defaults spelled out — share one.
func (e *Engine) AnalysisRequest(req Request) (any, error) {
	m, err := e.analysisMemo(req)
	if err != nil {
		return nil, err
	}
	return m.val, m.err
}

// AnalysisRendered is AnalysisRequest followed by render over the
// result, with render's output memoized on the same entry: render runs
// at most once per computed value — never over a compute error — and
// every later call returns the stored output (or render's error). The
// output is keyed only by the engine and the memo key, so render must
// derive it from the value and from what that key identifies, nothing
// else of the caller's request. A memo that an Append keeps warm keeps
// its rendering; one that is invalidated or evicted loses both.
func (e *Engine) AnalysisRendered(req Request, render func(any) (any, error)) (any, error) {
	m, err := e.analysisMemo(req)
	if err != nil {
		return nil, err
	}
	if m.err != nil {
		return nil, m.err
	}
	m.renderOnce.Do(func() { m.out, m.outErr = render(m.val) })
	return m.out, m.outErr
}

// ReportRendered renders the full text report (WriteReport) once per
// corpus state and hands its bytes to render, memoizing render's
// output on the engine: later calls return it without re-rendering
// until an Append, which changes every report, drops it. Errors are
// memoized like analysis errors.
func (e *Engine) ReportRendered(render func(report []byte) (any, error)) (any, error) {
	e.mu.Lock()
	if e.report == nil {
		e.report = &memo{}
	}
	m := e.report
	e.mu.Unlock()
	m.once.Do(func() {
		var buf bytes.Buffer
		if m.err = e.WriteReport(&buf); m.err == nil {
			m.val, m.err = render(buf.Bytes())
		}
	})
	return m.val, m.err
}

// analysisMemo finds or inserts req's memo entry, counts the hit or
// miss, and computes the entry's value on first use.
func (e *Engine) analysisMemo(req Request) (*memo, error) {
	reg, ok := analysis.Lookup(req.Name)
	if !ok {
		return nil, &UnknownAnalysisError{Name: req.Name, Available: analysis.SortedNames()}
	}
	params := req.Params
	if params.IsZero() {
		params = reg.DefaultParams() // resolved once, at registration
	}
	key := memoKey{name: req.Name, params: params.Canonical()}
	e.mu.Lock()
	m := e.memos[key]
	hit := m != nil
	if m == nil {
		m = &memo{}
		e.memos[key] = m
		if key.params != "" {
			e.paramOrder = append(e.paramOrder, key)
			if len(e.paramOrder) > paramMemoLimit {
				delete(e.memos, e.paramOrder[0])
				copy(e.paramOrder, e.paramOrder[1:])
				e.paramOrder = e.paramOrder[:paramMemoLimit]
			}
		}
	}
	e.mu.Unlock()
	if hit {
		e.memoHits.Add(1)
		e.emit(Event{Kind: EventHit, Owner: req.Owner, Name: key.name, Params: key.params})
	} else {
		e.memoMisses.Add(1)
	}
	m.once.Do(func() {
		var ds *analysis.Dataset
		if !reg.Static {
			var err error
			if ds, err = e.dataset(req.Owner); err != nil {
				m.err = err
				return
			}
			if e.hook != nil && req.Owner != nil {
				// A shallow copy sharing the dataset's cache identity,
				// so attaching the owner's kernel sink never splits
				// dataset-keyed caches downstream.
				ds = ds.WithKernel(func(k analysis.KernelEvent) {
					e.hook(Event{Kind: EventKernel, Owner: req.Owner, Kernel: k})
				})
			}
		}
		// Timed after dataset: EventIngest reports the ingestion.
		ev := Event{Kind: EventCompute, Owner: req.Owner, Name: key.name, Params: key.params, Start: time.Now()}
		m.val, m.err = reg.Func(ds, params)
		ev.End, ev.Err = time.Now(), m.err
		e.emit(ev)
	})
	return m, nil
}

// MemoStats is a point-in-time snapshot of one engine's analysis memo
// cache: lifetime hit/miss counts plus the resident entry count.
// A "hit" is any request that found an existing entry — including
// requests that then blocked on a computation still in flight — so
// hits + misses equals total AnalysisRequest calls.
type MemoStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// MemoStats reports the engine's memo-cache counters.
func (e *Engine) MemoStats() MemoStats {
	e.mu.Lock()
	n := len(e.memos)
	e.mu.Unlock()
	return MemoStats{
		Hits:    e.memoHits.Load(),
		Misses:  e.memoMisses.Load(),
		Entries: n,
	}
}

// RunsIngested reports the corpus size without triggering ingestion:
// zero until the source has been streamed (or if it failed). The dsDone
// acquire makes reading dsErr safe here, mirroring IngestionFailed.
func (e *Engine) RunsIngested() int {
	if !e.Ingested() {
		return 0
	}
	return len(e.ds.Load().Raw)
}

// Ingested reports whether the corpus has been streamed successfully,
// without triggering ingestion. It is the append path's precondition
// check: runs handed to Append on an engine that has not ingested yet
// would be delivered again by the source itself on first ingestion.
func (e *Engine) Ingested() bool {
	return e.dsDone.Load() && e.dsErr == nil
}

// AppendStats reports what one Append delivered: how far the appended
// runs got through the classification funnel and what that did to the
// memo cache.
type AppendStats struct {
	// Appended is the number of runs handed in.
	Appended int
	// Parsed counts appended runs that passed parse-consistency
	// (including the comparable ones); Comparable counts runs that
	// reached the comparable set.
	Parsed     int
	Comparable int
	// Invalidated is the number of memo entries dropped because their
	// declared input stage gained rows; Retained is the number kept
	// warm because it did not.
	Invalidated int
	Retained    int
}

// Append feeds new runs through the classification funnel the engine
// already built, publishes a fresh dataset snapshot, and drops exactly
// the memos whose declared input stage (analysis.Reads) gained rows —
// analyses unaffected by the appended runs keep serving from memo.
// Ingestion is triggered if it has not happened yet, so the appended
// runs must not also be delivered by the engine's source; callers
// layering Append over a growing source (core.AppendSource) skip
// already-ingested content by checking Ingested first, as the serving
// pool does.
//
// Append is atomic with respect to other Append calls but not with
// respect to in-flight computations: a computation that started before
// an Append may observe the newer snapshot. Callers needing
// ETag-style read consistency serialize appends against reads, as the
// serving pool does with its per-scope lock.
func (e *Engine) Append(runs []*model.Run) (AppendStats, error) {
	var st AppendStats
	if len(runs) == 0 {
		return st, nil
	}
	if _, err := e.Dataset(); err != nil {
		return st, err
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	before := e.builder.Funnel()
	for _, r := range runs {
		e.builder.Add(r)
	}
	after := e.builder.Funnel()
	st.Appended = len(runs)
	st.Parsed = after.Parsed - before.Parsed
	st.Comparable = after.Comparable - before.Comparable
	snap := e.builder.Snapshot()
	snap.Workers = e.workers
	e.ds.Store(snap)
	st.Invalidated, st.Retained = e.invalidate(st.Parsed > 0, st.Comparable > 0)
	return st, nil
}

// invalidate drops the memos whose declared input stage gained rows
// and reports how many were dropped vs. kept warm.
func (e *Engine) invalidate(parsed, comparable bool) (dropped, kept int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.report = nil // the report's funnel section counts raw runs
	for key := range e.memos {
		if !appendAffects(inputOf(key.name), parsed, comparable) {
			kept++
			continue
		}
		delete(e.memos, key)
		dropped++
	}
	if dropped > 0 && len(e.paramOrder) > 0 {
		live := e.paramOrder[:0]
		for _, key := range e.paramOrder {
			if _, ok := e.memos[key]; ok {
				live = append(live, key)
			}
		}
		e.paramOrder = live
	}
	return dropped, kept
}

// inputOf resolves an analysis's declared input stage, defaulting to
// the conservative InputRaw for names no longer registered.
func inputOf(name string) analysis.Input {
	if reg, ok := analysis.Lookup(name); ok {
		return reg.Input
	}
	return analysis.InputRaw
}

// appendAffects reports whether an analysis reading the given stage is
// affected by an append whose runs reached the given stages. Raw is
// always affected: every appended run lands in the raw set.
func appendAffects(in analysis.Input, parsed, comparable bool) bool {
	switch in {
	case analysis.InputNone:
		return false
	case analysis.InputComparable:
		return comparable
	case analysis.InputParsed:
		return parsed
	default:
		return true
	}
}

// AnalysisAs runs a named analysis and asserts its result type.
func AnalysisAs[T any](e *Engine, name string) (T, error) {
	var zero T
	v, err := e.Analysis(name)
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("core: analysis %q is %T, not %T", name, v, zero)
	}
	return t, nil
}

// Result is one analysis outcome, as selected by Run or RunRequests.
// Params is the canonical non-default parameter string of the request
// ("" — and absent from JSON — for a default request, keeping
// parameterless output byte-identical to the pre-params engine).
type Result struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Params      string `json:"params,omitempty"`
	Value       any    `json:"value"`
}

// Run computes the named analyses (all registered ones when names is
// empty, in registration order) with default parameters; sugar over
// RunRequests.
func (e *Engine) Run(names ...string) ([]Result, error) {
	return e.RunRequests(requestsFor(names)...)
}

// requestsFor maps names to default-parameter requests (empty = every
// registered analysis, in registration order).
func requestsFor(names []string) []Request {
	if len(names) == 0 {
		names = analysis.Names()
	}
	reqs := make([]Request, len(names))
	for i, name := range names {
		reqs[i] = Request{Name: name}
	}
	return reqs
}

// RunRequests computes the requested analyses (empty = all registered
// ones with default parameters) concurrently across the engine's worker
// pool and returns them in request order. The memo cache makes the
// fan-out safe — each (name, params) pair still runs at most once per
// engine, with a full report costing max(analysis) wall-clock instead
// of sum(analysis) — and errors stay deterministic: the lowest-index
// failure wins, as in par.ForEach. Re-running a request is free.
func (e *Engine) RunRequests(reqs ...Request) ([]Result, error) {
	if len(reqs) == 0 {
		reqs = requestsFor(nil)
	}
	if err := e.compute(reqs, nil); err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(reqs))
	for _, req := range reqs {
		v, err := e.AnalysisRequest(req) // memoized by compute: a cache read
		if err != nil {
			return nil, err
		}
		reg, _ := analysis.Lookup(req.Name)
		out = append(out, Result{
			Name:        req.Name,
			Description: reg.Description,
			Params:      req.Params.Canonical(),
			Value:       v,
		})
	}
	return out, nil
}

// compute fans the requested analyses out across a bounded worker pool
// (e.workers, 0 = GOMAXPROCS) and populates the memo cache. Names in
// optional still warm the cache but do not fail the batch. Corpus
// ingestion happens once: the first worker to need the dataset pays for
// it inside dsOnce while the others block on the same sync.Once.
func (e *Engine) compute(reqs []Request, optional map[string]bool) error {
	return par.ForEach(len(reqs), e.workers, func(i int) error {
		_, err := e.AnalysisRequest(reqs[i])
		if optional[reqs[i].Name] {
			return nil
		}
		return err
	})
}

// WriteJSON runs the named analyses (empty = all) with default
// parameters and writes them as an indented JSON array of
// {name, description, value} objects — the machine-readable sibling of
// WriteReport.
func (e *Engine) WriteJSON(w io.Writer, names ...string) error {
	return e.WriteJSONRequests(w, requestsFor(names)...)
}

// WriteJSONRequests runs the requested analyses (empty = all, default
// parameters) and writes them as an indented JSON array; requests with
// non-default parameters additionally carry their canonical params
// string.
func (e *Engine) WriteJSONRequests(w io.Writer, reqs ...Request) error {
	results, err := e.RunRequests(reqs...)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return fmt.Errorf("core: encode analyses: %w", err)
	}
	return nil
}

// reportSections is the full text report, in order: each section's
// title and the analyses printed under it, with default parameters,
// through their registered Text renderers. It is the only list of what
// the report shows; WriteReport warms every name in it before the
// first byte is written.
var reportSections = []struct {
	title string
	names []string
}{
	{"Filter funnel (Section II)", []string{"funnel"}},
	{"Submission trends (S2)", []string{"submissions"}},
	{"Figure 1: corpus composition by year", []string{"fig1"}},
	{"Figure 2: power per socket at full load", []string{"fig2", "growth"}},
	{"Figure 3: overall efficiency", []string{"fig3", "top100"}},
	{"Figure 4: relative efficiency at 60–90 % load", []string{"fig4"}},
	{"Figure 5: idle power fraction", []string{"fig5", "idlehistory", "changepoint"}},
	{"Figure 6: extrapolated idle quotient", []string{"fig6"}},
	{"S6: feature comparison since 2021", []string{"features"}},
	{"Trend tests (Mann-Kendall + Theil–Sen, α = 0.10)", []string{"trends"}},
	{"Energy proportionality score by year", []string{"ep"}},
	{"Correlation exploration since 2021 (vendor confounding)", []string{"confound"}},
	{"Configuration clusters (phenotypes)", []string{"cluster-profiles"}},
	{"Table I: SR650 V3 (Intel) vs SR645 V3 (AMD)", []string{"table1"}},
}

// reportBestEffort names the report analyses whose error drops their
// text instead of failing the report: the changepoint needs enough
// yearly bins, which a small corpus slice may not have.
var reportBestEffort = map[string]bool{"changepoint": true}

// WriteReport prints the full study — funnel, all six figures, Table I
// and the in-text statistics — as a terminal report, one reportSections
// entry after another. Every section is pulled through the engine's
// memoized analysis cache, which WriteReport first populates
// concurrently across the worker pool: the sequential render pass then
// only reads cached results, so a full report costs max(analysis)
// wall-clock, and a report after targeted Run calls only computes what
// is still missing. Every analysis the report names must be registered,
// the clustering ones included (import repro/internal/cluster).
func (e *Engine) WriteReport(w io.Writer) error {
	// Surface source errors before any section is printed.
	if _, err := e.Dataset(); err != nil {
		return err
	}
	var warm []Request
	for _, sec := range reportSections {
		for _, name := range sec.names {
			warm = append(warm, Request{Name: name})
		}
	}
	if err := e.compute(warm, reportBestEffort); err != nil {
		return err
	}
	for _, sec := range reportSections {
		fmt.Fprintf(w, "\n%s\n%s\n", sec.title, strings.Repeat("=", len(sec.title)))
		for _, name := range sec.names {
			v, err := e.Analysis(name)
			if err != nil {
				if reportBestEffort[name] {
					continue
				}
				return err
			}
			if err := writeText(w, name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteAnalysisText renders one named analysis result as terminal text:
// a title line, then the same body the full report prints for it.
func WriteAnalysisText(w io.Writer, res Result) error {
	title := res.Name
	if res.Params != "" {
		title += "?" + res.Params
	}
	fmt.Fprintf(w, "\n%s — %s\n%s\n", title, res.Description,
		strings.Repeat("=", utf8.RuneCountInString(title)+3+
			utf8.RuneCountInString(res.Description)))
	return writeText(w, res.Name, res.Value)
}

// writeText renders one result through its registration's Text, or as
// indented JSON when the analysis registers none, so externally
// registered analyses print usefully too.
func writeText(w io.Writer, name string, v any) error {
	if reg, ok := analysis.Lookup(name); ok && reg.Text != nil {
		reg.Text(w, v)
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("core: render %s: %w", name, err)
	}
	return nil
}

// table1 is registered here rather than in the analysis package: it
// compares two catalog systems under SPEC CPU 2017 and SPEC Power
// models and does not depend on the corpus, so it lives with the layer
// that knows about speccpu. It also demonstrates that the registry is
// open to callers outside the analysis package.
func init() {
	analysis.RegisterStatic("table1",
		"Table I: SR650 V3 (Intel) vs SR645 V3 (AMD) across SPEC benchmarks",
		func() (any, error) {
			intelSys, amdSys, err := speccpu.DefaultDuel()
			if err != nil {
				return nil, err
			}
			return speccpu.Table1(intelSys, amdSys)
		}, analysis.Text(speccpu.WriteTable1))
}
