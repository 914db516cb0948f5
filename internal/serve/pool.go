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
// keys the engine pool, so semantically equal spellings share one
// engine. An expression with no clauses left after trimming (absent,
// empty-but-present ?filter=, whitespace, bare commas) canonicalizes to
// the zero scope, so every such spelling shares the single unfiltered
// pool entry rather than keying duplicates. Filter comparisons are
// case-insensitive throughout core.ParseFilter, which makes the
// lower-casing safe.
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

// poolEntry is one resident scope engine. The engine and its corpus
// fingerprint are built inside once, so concurrent requests for a cold
// scope block on the same construction instead of each building their
// own (and then, through the engine's own sync.Once memoization, share
// one ingestion and one computation per analysis).
type poolEntry struct {
	scope string
	keep  func(*model.Run) bool // scope predicate (nil = whole corpus)
	once  sync.Once

	eng *core.Engine
	src core.Source // the scope's source, for fingerprint refresh on append
	err error

	// live orders appends against serving on a live pool: a handler
	// holds the read side from reading the fingerprint until its
	// response bytes (and audit record) exist, so the ETag it hands out
	// always matches the engine state it computed from; absorb holds
	// the write side while folding runs in and refreshing the
	// fingerprint. The guarded fields below are immutable on a static
	// pool — the lock is then uncontended and the fast path unchanged.
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
// engine it builds carries the pool's hook, so ingest and compute
// timings flow into the shared collector no matter which scope they
// happen on.
type enginePool struct {
	base    core.Source
	workers int
	max     int
	metrics *obs.Collector
	events  *evlog.Logger // nil = no event log

	// live is the append-aware base source when live ingestion is on
	// (it wraps base), nil on a static pool. appendMu serializes the
	// append plane — absorbs, resets, and the build-time fingerprint
	// fallback — so generations advance one at a time.
	live     *core.AppendSource
	appendMu sync.Mutex

	mu      sync.Mutex
	lru     *list.List // of *poolEntry; front = most recently served
	byScope map[string]*list.Element

	builds    atomic.Int64
	evictions atomic.Int64 // LRU evictions only, the /v1/stats semantics

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

// get returns the entry for sc, building it on first use. Only the
// entry bookkeeping happens under the pool lock; the build itself runs
// in the entry's once, so a slow ingestion never blocks requests for
// other scopes. traceID labels the build events with the request that
// triggered them ("" with tracing off).
func (p *enginePool) get(sc scope, traceID string) (*poolEntry, error) {
	p.gets.Add(1)
	ent, fresh := p.entry(sc.expr)
	if fresh {
		p.misses.Add(1)
	} else {
		p.hits.Add(1)
		ent.hits.Add(1)
	}
	if !ent.built.Load() {
		ent.arrivals.Add(1)
	}
	ent.once.Do(func() {
		p.events.Debug("pool_build_start",
			evlog.String("scope", ent.scope),
			evlog.String("trace_id", traceID))
		start := time.Now()
		src := p.source(sc)
		fp, gen, err := p.stableFingerprint(src)
		if err != nil {
			// Never cache a failed build: drop the entry so a transient
			// problem (corpus dir mid-sync, say) is retried, not pinned.
			ent.err = err
			p.dropReason(ent, "build_failed", traceID)
			return
		}
		p.builds.Add(1)
		ent.fingerprint = fp
		ent.gen = gen
		ent.src = src
		ent.keep = sc.keep
		ent.eng = core.New(core.WithSource(src), core.WithWorkers(p.workers),
			core.WithHook(p.observe))
		// The build stage covers fingerprinting plus construction;
		// ingestion stays lazy and is timed by the engine itself.
		dur := time.Since(start)
		p.metrics.ObserveBuild(dur.Nanoseconds())
		// Count the single-flight cohort before opening the fast path:
		// requests arriving after built is set never bump arrivals, so
		// the joins tally is exactly who waited on this build.
		joins := ent.arrivals.Load() - 1
		if joins < 0 {
			joins = 0 // defensive: the winner itself always arrived
		}
		p.joins.Add(joins)
		ent.built.Store(true)
		p.events.Info("pool_build",
			evlog.String("scope", ent.scope),
			evlog.String("fingerprint", fp),
			evlog.Int64("joins", joins),
			evlog.Dur("dur", dur),
			evlog.String("trace_id", traceID))
	})
	if ent.err != nil {
		return nil, ent.err
	}
	return ent, nil
}

// source builds the corpus source for one scope: the base source,
// sliced by the scope predicate when there is one.
func (p *enginePool) source(sc scope) core.Source {
	if sc.keep == nil {
		return p.base
	}
	return core.FilterSource{Inner: p.base, Keep: sc.keep, Desc: sc.expr}
}

// stableFingerprint fingerprints a scope source at a known generation.
// On a static pool that is just SourceFingerprint. On a live pool an
// append can land mid-walk, yielding a fingerprint that matches neither
// the old nor the new corpus — so the generation is read on both sides
// and the walk retried on a mismatch; after two dirty reads the final
// attempt runs under appendMu, with the append plane quiesced.
func (p *enginePool) stableFingerprint(src core.Source) (string, uint64, error) {
	if p.live == nil {
		fp, err := core.SourceFingerprint(src)
		return fp, 0, err
	}
	for attempt := 0; attempt < 2; attempt++ {
		gen := p.live.Generation()
		fp, err := core.SourceFingerprint(src)
		if err != nil {
			return "", 0, err
		}
		if p.live.Generation() == gen {
			return fp, gen, nil
		}
	}
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	fp, err := core.SourceFingerprint(src)
	return fp, p.live.Generation(), err
}

// entries snapshots the resident entries without disturbing LRU order.
func (p *enginePool) entries() []*poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	ents := make([]*poolEntry, 0, p.lru.Len())
	for el := p.lru.Front(); el != nil; el = el.Next() {
		ents = append(ents, el.Value.(*poolEntry))
	}
	return ents
}

// absorb folds freshly arrived runs into the live corpus: it advances
// the append source — Append for runs that exist nowhere else (the
// POST /v1/runs path), Bump for runs whose files the base source
// already sees (the watcher path, where appending them again would
// deliver them twice to engines that ingest later) — then walks every
// resident entry, feeding matching runs through its engine's delta path
// and refreshing its fingerprint. Returns the new generation.
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
	for _, ent := range p.entries() {
		p.absorbEntry(ent, runs, gen, traceID)
	}
	p.events.Info("pool_append",
		evlog.Int("runs", len(runs)),
		evlog.Int64("generation", int64(gen)),
		evlog.Bool("overlay", viaOverlay),
		evlog.String("trace_id", traceID))
	return gen
}

// absorbEntry folds one absorbed append into one resident entry, under
// its write lock so no in-flight request sees the fingerprint move
// between its ETag and its body. Entries still building are skipped —
// their build fingerprints the post-append source (stableFingerprint
// rules out the torn read) and their engine ingests it whole. Likewise
// an already-current entry (built after the bump), and an engine that
// has not ingested yet: its eventual ingestion streams the post-append
// source, so feeding it the runs now would deliver them twice.
func (p *enginePool) absorbEntry(ent *poolEntry, runs []*model.Run, gen uint64, traceID string) {
	if !ent.built.Load() {
		return
	}
	ent.live.Lock()
	defer ent.live.Unlock()
	if ent.gen >= gen {
		return
	}
	var st core.AppendStats
	if ent.eng.Ingested() {
		matching := runs
		if ent.keep != nil {
			matching = nil
			for _, r := range runs {
				if ent.keep(r) {
					matching = append(matching, r)
				}
			}
		}
		var err error
		if st, err = ent.eng.Append(matching); err != nil {
			// A failed delta leaves the engine's dataset behind its
			// source: drop the entry so the next request rebuilds from
			// the full post-append corpus.
			p.dropReason(ent, "append_failed", traceID)
			return
		}
	}
	fp, err := core.SourceFingerprint(ent.src)
	if err != nil {
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

// reset drops every resident entry and advances the generation: the
// base corpus changed in a way the delta path cannot express (a file
// modified or removed under the watcher), so every engine and every
// outstanding ETag is stale. In-flight requests finish against the
// engines they already hold — their ETags match the bytes they serve,
// and the next revalidation misses.
func (p *enginePool) reset(reason string) int {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	if p.live != nil {
		p.live.Bump()
	}
	p.mu.Lock()
	dropped := make([]string, 0, p.lru.Len())
	for el := p.lru.Front(); el != nil; el = el.Next() {
		dropped = append(dropped, el.Value.(*poolEntry).scope)
	}
	p.lru.Init()
	p.byScope = map[string]*list.Element{}
	p.mu.Unlock()
	for _, sc := range dropped {
		p.events.Info("pool_evict",
			evlog.String("scope", sc),
			evlog.String("reason", reason))
	}
	return len(dropped)
}

// entry looks the scope up, inserting (and evicting beyond the LRU
// bound) when missing. Served scopes move to the LRU front. The bool
// reports whether the entry was freshly inserted (a pool miss).
func (p *enginePool) entry(key string) (*poolEntry, bool) {
	p.mu.Lock()
	if el, ok := p.byScope[key]; ok {
		p.lru.MoveToFront(el)
		p.mu.Unlock()
		return el.Value.(*poolEntry), false
	}
	ent := &poolEntry{scope: key, born: p.gets.Load()}
	p.byScope[key] = p.lru.PushFront(ent)
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

// dropReason removes ent — unless the scope has already been
// re-inserted by a later request (then the newer entry stays) — and
// attributes the removal: "build_failed" for a construction error,
// "ingestion_failed" for a corpus that broke after construction. LRU
// removals never come through here; entry() owns those.
func (p *enginePool) dropReason(ent *poolEntry, reason, traceID string) {
	p.mu.Lock()
	removed := false
	if el, ok := p.byScope[ent.scope]; ok && el.Value.(*poolEntry) == ent {
		p.lru.Remove(el)
		delete(p.byScope, ent.scope)
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
