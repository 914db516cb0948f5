package serve

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
)

// scope is one corpus slice a client can request: the canonical filter
// expression (the pool key; "" = the whole base corpus) and its
// compiled predicate.
type scope struct {
	expr string
	keep func(*model.Run) bool
}

// parseScope canonicalizes and compiles a ?filter= expression. The
// canonical form — lower-cased, space-trimmed clauses in sorted order —
// keys the engine pool, so equal spellings share one engine; with no
// clauses left (absent, empty, whitespace, bare commas) it is the zero
// scope, the root. core.ParseFilter compares case-insensitively, which
// makes the lower-casing safe.
func parseScope(expr string) (scope, error) {
	var clauses []string
	for _, c := range strings.Split(strings.ToLower(expr), ",") {
		if c = strings.TrimSpace(c); c != "" {
			clauses = append(clauses, c)
		}
	}
	if len(clauses) == 0 {
		return scope{}, nil
	}
	sort.Strings(clauses)
	canonical := strings.Join(clauses, ",")
	keep, err := core.ParseFilter(canonical)
	if err != nil {
		return scope{}, err
	}
	return scope{expr: canonical, keep: keep}, nil
}

// poolEntry is one scope engine. The engine and its corpus fingerprint
// are built inside once, so concurrent requests for a cold scope share
// one construction (and, through the engine's memos, one ingestion).
type poolEntry struct {
	scope string
	keep  func(*model.Run) bool // scope predicate (nil = whole corpus)
	once  sync.Once

	eng *core.Engine
	err error

	// live orders appends against serving on a live pool: a handler
	// holds the read side from reading the fingerprint until its bytes
	// (and audit record) exist, so its ETag matches the engine state it
	// computed from; absorb holds the write side. On a static pool the
	// guarded fields are immutable and the lock uncontended.
	live         sync.RWMutex
	fingerprint  string
	gen          uint64 // live-source generation the fingerprint reflects
	runsAppended int64  // runs folded in after the initial build

	// born is the pool's get counter at insertion; age-in-requests is
	// the counter's distance from it.
	born int64
	// hits counts requests that found this entry already resident.
	hits atomic.Int64
	// arrivals counts requests that reached the entry before its build
	// finished — the single-flight cohort. The build winner reports
	// joins = arrivals-1 (everyone but itself); built stops the count.
	arrivals atomic.Int64
	built    atomic.Bool
}

// enginePool maps canonical scopes to engines, LRU-bounded. Every
// engine carries the pool's hook, feeding the shared collector.
type enginePool struct {
	base    core.Source
	workers int
	max     int
	metrics *obs.Collector
	events  *evlog.Logger // nil = no event log

	// live is the append-aware base source when live ingestion is on
	// (it wraps base), nil on a static pool. appendMu serializes
	// absorbs, resets and entry builds, so a build sees one generation.
	live     *core.AppendSource
	appendMu sync.Mutex

	mu      sync.Mutex
	lru     *list.List // of *poolEntry; front = most recently served
	byScope map[string]*list.Element
	// root is the scope "" entry every filter scope is a view of. It
	// outlives LRU eviction (a later "" request reinserts it) and is
	// cleared only by a failure drop or a reset.
	root *poolEntry

	builds    atomic.Int64
	evictions atomic.Int64 // LRU evictions only; failure drops are counted apart

	appends      atomic.Int64 // absorbed appends (POST bodies + watcher deltas)
	appendedRuns atomic.Int64 // runs those appends carried

	// state-plane counters for the exposition
	gets              atomic.Int64 // every pool.get, the age-in-requests clock
	hits              atomic.Int64 // gets that found the scope resident
	misses            atomic.Int64 // gets that inserted a fresh entry
	joins             atomic.Int64 // single-flight waiters across all builds
	evictBuildFailed  atomic.Int64 // entries dropped because the build errored
	evictIngestFailed atomic.Int64 // entries dropped after IngestionFailed
}

func newEnginePool(base core.Source, live *core.AppendSource, workers, max int, metrics *obs.Collector, events *evlog.Logger) *enginePool {
	return &enginePool{
		base:    base,
		live:    live,
		workers: workers,
		max:     max,
		metrics: metrics,
		events:  events,
		lru:     list.New(),
		byScope: map[string]*list.Element{},
	}
}

// observe is every pooled engine's hook: each event feeds the shared
// collector once, and an event a request owns also lands in that
// request's record.
func (p *enginePool) observe(ev core.Event) {
	switch ev.Kind {
	case core.EventIngest:
		p.metrics.ObserveIngest(ev.End.Sub(ev.Start).Nanoseconds())
	case core.EventCompute:
		p.metrics.ObserveCompute(ev.End.Sub(ev.Start).Nanoseconds())
	case core.EventHit:
		p.metrics.ObserveMemoHit()
	}
	if rec, ok := ev.Owner.(*record); ok {
		rec.engineEvent(ev)
	}
}

// get returns the entry for sc, building it on first use under appendMu.
// traceID labels the build events ("" with tracing off).
func (p *enginePool) get(sc scope, traceID string) (*poolEntry, error) {
	p.gets.Add(1)
	ent, fresh := p.entry(sc)
	if fresh {
		p.misses.Add(1)
	} else {
		p.hits.Add(1)
		ent.hits.Add(1)
	}
	if !ent.built.Load() {
		ent.arrivals.Add(1)
		p.appendMu.Lock()
		p.build(ent, traceID)
		p.appendMu.Unlock()
	}
	if ent.err != nil {
		return nil, ent.err
	}
	return ent, nil
}

// build constructs ent once; appendMu is held. A scope's build stage
// starts after its origin is ready, so a root ingestion is not counted
// as build time.
func (p *enginePool) build(ent *poolEntry, traceID string) {
	ent.once.Do(func() {
		p.events.Debug("pool_build_start",
			evlog.String("scope", ent.scope),
			evlog.String("trace_id", traceID))
		var root *poolEntry
		if ent.keep != nil {
			root, ent.err = p.origin(traceID)
		}
		start := time.Now()
		if ent.err == nil {
			ent.err = p.construct(ent, root)
		}
		if ent.err != nil { // dropped, so a transient failure is retried
			p.dropReason(ent, "build_failed", traceID)
			return
		}
		p.builds.Add(1)
		dur := time.Since(start)
		p.metrics.ObserveBuild(dur.Nanoseconds())
		// Count the single-flight cohort before opening the fast path:
		// requests arriving after built is set never bump arrivals.
		joins := ent.arrivals.Load() - 1
		if joins < 0 {
			joins = 0 // a root built as a scope's origin has no arrivals
		}
		p.joins.Add(joins)
		ent.built.Store(true)
		p.events.Info("pool_build",
			evlog.String("scope", ent.scope),
			evlog.String("fingerprint", ent.fingerprint),
			evlog.Int64("joins", joins),
			evlog.Dur("dur", dur),
			evlog.String("trace_id", traceID))
	})
}

// origin returns the root entry, built and ingested; appendMu is held.
func (p *enginePool) origin(traceID string) (*poolEntry, error) {
	p.mu.Lock()
	if p.root == nil {
		p.root = &poolEntry{born: p.gets.Load()}
	}
	root := p.root
	p.mu.Unlock()
	p.build(root, traceID)
	if root.err != nil {
		return nil, root.err
	}
	if _, err := root.eng.Dataset(); err != nil {
		p.dropReason(root, "ingestion_failed", traceID)
		return nil, err
	}
	return root, nil
}

// construct sets ent's engine and fingerprint. The root streams and
// fingerprints the base. A scope is a view of the root: the root's raw
// runs that pass the predicate, in order, frozen in a slice its engine
// classifies lazily, under FilterSource's fingerprint, derived unwalked.
func (p *enginePool) construct(ent *poolEntry, root *poolEntry) error {
	src := p.base
	if root == nil {
		fp, err := core.SourceFingerprint(p.base)
		if err != nil {
			return err
		}
		ent.fingerprint = fp
		if p.live != nil {
			ent.gen = p.live.Generation()
		}
	} else {
		ds, _ := root.eng.Dataset() // origin ingested it
		ent.fingerprint = core.Digest("filter", ent.scope, root.fingerprint)
		ent.gen = root.gen
		// keepRuns already applied the predicate, so Keep stays nil and
		// no run is tested twice; Desc alone names the scope in Name().
		src = core.FilterSource{Inner: core.SliceSource(keepRuns(ds.Raw, ent.keep)), Desc: ent.scope}
	}
	ent.eng = core.New(core.WithSource(src), core.WithWorkers(p.workers),
		core.WithHook(p.observe))
	return nil
}

// keepRuns returns the runs keep accepts, in order.
func keepRuns(runs []*model.Run, keep func(*model.Run) bool) []*model.Run {
	var out []*model.Run
	for _, r := range runs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// entries snapshots the resident entries and the root, evicted or not,
// without disturbing LRU order; with clear it also empties the pool.
func (p *enginePool) entries(clear bool) []*poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ents []*poolEntry
	for el := p.lru.Front(); el != nil; el = el.Next() {
		ents = append(ents, el.Value.(*poolEntry))
	}
	if _, resident := p.byScope[""]; p.root != nil && !resident {
		ents = append(ents, p.root)
	}
	if clear {
		p.root = nil
		p.lru.Init()
		p.byScope = map[string]*list.Element{}
	}
	return ents
}

// absorb folds freshly arrived runs into the live corpus — Append for
// runs that exist nowhere else (POST /v1/runs), Bump for runs whose
// files the base already sees (the watcher) — and into every entry.
// Returns the new generation.
func (p *enginePool) absorb(runs []*model.Run, viaOverlay bool, traceID string) uint64 {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	var gen uint64
	if viaOverlay {
		gen = p.live.Append(runs...)
	} else {
		gen = p.live.Bump()
	}
	p.appends.Add(1)
	p.appendedRuns.Add(int64(len(runs)))
	// The base keeps its inner fingerprint until Bump: a POST walks
	// nothing, watcher growth walks the corpus once (as does the first
	// root build after a reset), and every scope derives its
	// fingerprint from this one.
	fp, err := core.SourceFingerprint(p.base)
	for _, ent := range p.entries(false) {
		if err != nil {
			p.dropReason(ent, "append_failed", traceID)
		} else {
			p.absorbEntry(ent, runs, fp, gen, traceID)
		}
	}
	p.events.Info("pool_append",
		evlog.Int("runs", len(runs)),
		evlog.Int64("generation", int64(gen)),
		evlog.Bool("overlay", viaOverlay),
		evlog.String("trace_id", traceID))
	return gen
}

// absorbEntry folds one append into one built entry, under its write
// lock so no request sees the fingerprint move between its ETag and
// its body. A scope's frozen slice always takes its matching runs
// through Engine.Append (which ingests first if needed); a root not
// ingested yet skips them, as its ingestion streams the grown base.
func (p *enginePool) absorbEntry(ent *poolEntry, runs []*model.Run, baseFP string, gen uint64, traceID string) {
	if !ent.built.Load() {
		return // its build, ordered after this append, sees the new corpus
	}
	ent.live.Lock()
	defer ent.live.Unlock()
	matching, fp := runs, baseFP
	if ent.keep != nil {
		matching = keepRuns(runs, ent.keep)
		fp = core.Digest("filter", ent.scope, baseFP)
	} else if !ent.eng.Ingested() {
		matching = nil
	}
	st, err := ent.eng.Append(matching)
	if err != nil { // the dataset is behind its source: rebuild
		p.dropReason(ent, "append_failed", traceID)
		return
	}
	ent.fingerprint = fp
	ent.gen = gen
	ent.runsAppended += int64(st.Appended)
	p.events.Debug("pool_append_scope",
		evlog.String("scope", ent.scope),
		evlog.Int("appended", st.Appended),
		evlog.Int("invalidated", st.Invalidated),
		evlog.Int("retained", st.Retained),
		evlog.Int64("generation", int64(gen)),
		evlog.String("trace_id", traceID))
}

// reset drops every entry, the root included, and advances the live
// generation: the base changed in a way the delta path cannot express
// (a file modified or removed), so every engine and ETag is stale.
func (p *enginePool) reset(reason string) int {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	p.live.Bump()
	ents := p.entries(true)
	for _, ent := range ents {
		p.events.Info("pool_evict",
			evlog.String("scope", ent.scope),
			evlog.String("reason", reason))
	}
	return len(ents)
}

// entry looks the scope up, inserting (and evicting beyond the LRU
// bound) when missing; a "" miss inserts the root when there is one.
// Served scopes move to the LRU front. The bool reports whether the
// entry was freshly inserted (a pool miss).
func (p *enginePool) entry(sc scope) (*poolEntry, bool) {
	p.mu.Lock()
	if el, ok := p.byScope[sc.expr]; ok {
		p.lru.MoveToFront(el)
		p.mu.Unlock()
		return el.Value.(*poolEntry), false
	}
	ent := &poolEntry{scope: sc.expr, keep: sc.keep, born: p.gets.Load()}
	if sc.expr == "" {
		if p.root == nil {
			p.root = ent
		}
		ent = p.root
	}
	p.byScope[sc.expr] = p.lru.PushFront(ent)
	var evicted []string
	for p.lru.Len() > p.max {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.byScope, back.Value.(*poolEntry).scope)
		p.evictions.Add(1)
		evicted = append(evicted, back.Value.(*poolEntry).scope)
	}
	p.mu.Unlock()
	for _, sc := range evicted {
		p.events.Info("pool_evict",
			evlog.String("scope", sc),
			evlog.String("reason", "lru"))
	}
	return ent, true
}

// dropReason removes ent from the pool (unless a later request
// re-inserted its scope) and as the root, attributing the removal:
// "build_failed", "ingestion_failed" or "append_failed". LRU removals
// go through entry() instead.
func (p *enginePool) dropReason(ent *poolEntry, reason, traceID string) {
	p.mu.Lock()
	removed := false
	if el, ok := p.byScope[ent.scope]; ok && el.Value.(*poolEntry) == ent {
		p.lru.Remove(el)
		delete(p.byScope, ent.scope)
		removed = true
	}
	if p.root == ent {
		p.root = nil
		removed = true
	}
	p.mu.Unlock()
	if !removed {
		return
	}
	switch reason {
	case "build_failed":
		p.evictBuildFailed.Add(1)
	case "ingestion_failed":
		p.evictIngestFailed.Add(1)
	}
	p.events.Warn("pool_evict",
		evlog.String("scope", ent.scope),
		evlog.String("reason", reason),
		evlog.String("trace_id", traceID))
}

// len reports the resident engine count.
func (p *enginePool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
