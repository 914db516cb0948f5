package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names for per-stage timing. They are the `stage` label of the
// Prometheus exposition, so they are part of the wire contract.
const (
	StageQueueWait   = "queue_wait"   // blocked at the concurrency gate
	StageEngineBuild = "engine_build" // pool miss: fingerprint + engine construction
	StageIngest      = "ingest"       // corpus streamed through the classification funnel
	StageCompute     = "compute"      // analysis function execution (memo misses only)
	StageSerialize   = "serialize"    // response encoding
)

// Stages lists every stage name in exposition order.
var Stages = []string{
	StageQueueWait, StageEngineBuild, StageIngest, StageCompute, StageSerialize,
}

// RequestMetrics is the Collector's view of one finished request,
// derived from the serving layer's per-request record when the
// response is done. Stages the request never entered stay zero: a 304
// has no serialize time. Build, ingest and compute are absent on
// purpose — they reach the Collector once per actual event (see
// ObserveBuild, ObserveIngest, ObserveCompute), not once per request
// that waited on them.
type RequestMetrics struct {
	// Analysis is the registry name served ("" for non-analysis
	// endpoints).
	Analysis string
	// Status is the final HTTP status.
	Status int

	QueueWaitNs int64
	SerializeNs int64
	// TotalNs covers the whole request, gate entry to response end.
	TotalNs int64
}

// Collector aggregates request metrics: one histogram per stage, one
// end-to-end latency histogram per analysis, and the event counters the
// exposition reports. All methods are safe for concurrent use.
type Collector struct {
	// stages holds one histogram per Stages entry, fixed at
	// construction and only read afterwards, so lookups take no lock.
	stages map[string]*Histogram

	mu         sync.Mutex
	byAnalysis map[string]*Histogram

	// Event counters fed by the serving layer and the engine hook.
	// Engine builds are deliberately absent: the pool that performs
	// them owns that count, and the exposition takes it as a gauge
	// input so the two surfaces cannot drift.
	requests    atomic.Int64
	notModified atomic.Int64
	clientErrs  atomic.Int64 // 4xx responses
	serverErrs  atomic.Int64 // 5xx responses
	ingests     atomic.Int64
	computes    atomic.Int64
	memoHits    atomic.Int64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	c := &Collector{
		stages:     make(map[string]*Histogram, len(Stages)),
		byAnalysis: make(map[string]*Histogram),
	}
	for _, stage := range Stages {
		c.stages[stage] = &Histogram{}
	}
	return c
}

func (c *Collector) analysisHist(name string) *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.byAnalysis[name]
	if h == nil {
		h = &Histogram{}
		c.byAnalysis[name] = h
	}
	return h
}

// ObserveRequest folds one finished request into the aggregates: the
// request-owned stages (queue wait, serialize) into their stage
// histograms, the total into the analysis's latency histogram (when
// the request named one), and the status into the request/304/error
// counters.
func (c *Collector) ObserveRequest(m *RequestMetrics) {
	if m == nil {
		return
	}
	c.requests.Add(1)
	switch {
	case m.Status == 304:
		c.notModified.Add(1)
	case m.Status >= 500:
		c.serverErrs.Add(1)
	case m.Status >= 400:
		c.clientErrs.Add(1)
	}
	if m.QueueWaitNs > 0 {
		c.stages[StageQueueWait].Observe(time.Duration(m.QueueWaitNs))
	}
	if m.SerializeNs > 0 {
		c.stages[StageSerialize].Observe(time.Duration(m.SerializeNs))
	}
	if m.Analysis != "" && m.TotalNs > 0 {
		c.analysisHist(m.Analysis).Observe(time.Duration(m.TotalNs))
	}
}

// ObserveBuild records one engine construction (pool miss) into the
// stage histogram; the build count itself is owned by the pool.
func (c *Collector) ObserveBuild(ns int64) {
	c.stages[StageEngineBuild].Observe(time.Duration(ns))
}

// ObserveIngest records one corpus ingestion — the once-per-engine
// cost, counted exactly once no matter how many requests waited on it.
func (c *Collector) ObserveIngest(ns int64) {
	c.ingests.Add(1)
	c.stages[StageIngest].Observe(time.Duration(ns))
}

// ObserveCompute records one analysis computation (memo miss). The
// per-analysis histograms aggregate request latency, not compute time —
// compute feeds only the stage histogram, so a memoized analysis's
// request latency distribution stays comparable across hit and miss.
func (c *Collector) ObserveCompute(ns int64) {
	c.computes.Add(1)
	c.stages[StageCompute].Observe(time.Duration(ns))
}

// ObserveMemoHit records one engine memo-cache hit. With
// ObserveCompute counting the misses, the pair yields the fleet-wide
// memo hit ratio — and, unlike per-engine counters, survives engine
// eviction.
func (c *Collector) ObserveMemoHit() {
	c.memoHits.Add(1)
}

// Requests reports completed requests observed.
func (c *Collector) Requests() int64 { return c.requests.Load() }

// NotModified reports 304 responses observed.
func (c *Collector) NotModified() int64 { return c.notModified.Load() }

// ClientErrors reports 4xx responses observed.
func (c *Collector) ClientErrors() int64 { return c.clientErrs.Load() }

// ServerErrors reports 5xx responses observed.
func (c *Collector) ServerErrors() int64 { return c.serverErrs.Load() }

// Ingests reports corpus ingestions observed.
func (c *Collector) Ingests() int64 { return c.ingests.Load() }

// Computes reports analysis computations observed.
func (c *Collector) Computes() int64 { return c.computes.Load() }

// MemoHits reports engine memo-cache hits observed.
func (c *Collector) MemoHits() int64 { return c.memoHits.Load() }

// analyses returns the per-analysis latency histograms, sorted by name.
func (c *Collector) analyses() (names []string, hists []*Histogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names = make([]string, 0, len(c.byAnalysis))
	for name := range c.byAnalysis {
		names = append(names, name)
	}
	sort.Strings(names)
	hists = make([]*Histogram, len(names))
	for i, name := range names {
		hists[i] = c.byAnalysis[name]
	}
	return names, hists
}
