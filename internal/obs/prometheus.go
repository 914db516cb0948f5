package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ServerGauges carries the serving-layer counters and gauges whose
// source of truth lives outside the Collector (the HTTP server's gate
// and engine pool, the audit log), so the exposition can render one
// consistent page without the Collector duplicating that state.
type ServerGauges struct {
	Requests      int64
	NotModified   int64
	ClientErrors  int64
	ServerErrors  int64
	RejectedBusy  int64
	InFlight      int64
	PoolEngines   int
	PoolCapacity  int
	EngineBuilds  int64
	PoolEvictions int64
	UptimeSeconds float64
	Analyses      int

	// TraceCapacity gates the trace metrics (0 = tracing disabled);
	// TracesRecorded counts traces pushed into the ring over the
	// process lifetime, including ones since overwritten.
	TraceCapacity  int
	TracesRecorded int64

	// AuditEnabled gates the audit metrics; AuditRecords counts chained
	// records appended over the process lifetime.
	AuditEnabled bool
	AuditRecords int64

	// Pool state-plane counters: requests that found a resident engine
	// (hits) vs. ones that inserted a fresh entry (misses), single-flight
	// joiners that waited on another request's build, and evictions split
	// by reason. PoolEvictions above is the LRU-only count, exposed as
	// reason="lru"; these two are the failure drops.
	PoolHits                  int64
	PoolMisses                int64
	PoolJoins                 int64
	PoolEvictionsBuildFailed  int64
	PoolEvictionsIngestFailed int64

	// Gob parse-cache counters (process-wide, all CachedSource streams).
	ParseCacheHits          int64
	ParseCacheMisses        int64
	ParseCacheInvalidations int64
	ParseCachePrunes        int64

	// Audit batching-writer introspection, gated by AuditEnabled.
	AuditQueueDepth      int64
	AuditFlushesBatch    int64
	AuditFlushesInterval int64
	AuditFlushesClose    int64
	AuditFlushedRecords  int64

	// Live-ingestion counters, gated by LiveEnabled: the corpus
	// generation (bumped once per absorbed append), appends absorbed,
	// and runs those appends carried.
	LiveEnabled       bool
	Generation        uint64
	AppendsTotal      int64
	AppendedRunsTotal int64
}

// seconds renders nanoseconds as a decimal seconds literal, the unit
// Prometheus conventions mandate for duration metrics.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'f', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one histogram series in exposition format,
// seconds-valued, under a single label.
func writeHistogram(w io.Writer, name, label, labelValue string, s HistogramSnapshot) {
	lv := escapeLabel(labelValue)
	for _, b := range s.Buckets {
		le := "+Inf"
		if b.UpperNs >= 0 {
			le = seconds(b.UpperNs)
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, lv, le, b.Cumulative)
	}
	fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, label, lv, seconds(s.SumNs))
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, lv, s.Count)
}

// WritePrometheus renders the full metrics page in Prometheus text
// exposition format (version 0.0.4): the serving counters and gauges
// from g, the per-stage duration histograms, and the per-analysis
// request latency histograms.
func (c *Collector) WritePrometheus(w io.Writer, g ServerGauges) {
	counter := func(name, help string, v int64) {
		writeHeader(w, name, "counter", help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	gauge := func(name, help string, v string) {
		writeHeader(w, name, "gauge", help)
		fmt.Fprintf(w, "%s %s\n", name, v)
	}
	counter("specserve_requests_total", "Requests served (all endpoints, all statuses).", g.Requests)
	counter("specserve_not_modified_total", "304 responses served with zero recomputation.", g.NotModified)
	counter("specserve_client_errors_total", "4xx responses (bad filters, unknown analyses, bad parameters).", g.ClientErrors)
	counter("specserve_server_errors_total", "5xx responses (including gate rejections).", g.ServerErrors)
	counter("specserve_rejected_busy_total", "Requests whose client gave up waiting at the concurrency gate.", g.RejectedBusy)
	counter("specserve_engine_builds_total", "Scope engines built over the server lifetime.", g.EngineBuilds)
	counter("specserve_ingests_total", "Corpus ingestions completed (one per engine that streamed its source).", c.ingests.Load())
	counter("specserve_computes_total", "Analysis computations executed (memo misses only).", c.computes.Load())
	writeHeader(w, "specserve_pool_evictions_total", "counter", "Scope engines evicted, by reason.")
	fmt.Fprintf(w, "specserve_pool_evictions_total{reason=\"lru\"} %d\n", g.PoolEvictions)
	fmt.Fprintf(w, "specserve_pool_evictions_total{reason=\"build_failed\"} %d\n", g.PoolEvictionsBuildFailed)
	fmt.Fprintf(w, "specserve_pool_evictions_total{reason=\"ingestion_failed\"} %d\n", g.PoolEvictionsIngestFailed)
	counter("specserve_pool_hits_total", "Requests that found their scope engine resident.", g.PoolHits)
	counter("specserve_pool_misses_total", "Requests that inserted a fresh pool entry.", g.PoolMisses)
	counter("specserve_pool_joins_total", "Requests that waited on another request's single-flight engine build.", g.PoolJoins)
	counter("specserve_memo_hits_total", "Engine memo-cache hits (analysis requests that found an existing entry).", c.memoHits.Load())
	counter("specserve_memo_misses_total", "Engine memo-cache misses; each miss is one analysis computation, so this equals specserve_computes_total.", c.computes.Load())
	counter("specserve_parse_cache_hits_total", "Gob parse-cache hits (size+mtime matched, parser skipped).", g.ParseCacheHits)
	counter("specserve_parse_cache_misses_total", "Gob parse-cache misses (file absent from the cache).", g.ParseCacheMisses)
	counter("specserve_parse_cache_invalidations_total", "Gob parse-cache entries invalidated by size or mtime change.", g.ParseCacheInvalidations)
	counter("specserve_parse_cache_prunes_total", "Gob parse-cache entries pruned for deleted files.", g.ParseCachePrunes)
	gauge("specserve_in_flight_requests", "Requests currently inside the concurrency gate.", strconv.FormatInt(g.InFlight, 10))
	gauge("specserve_pool_engines", "Resident scope engines.", strconv.Itoa(g.PoolEngines))
	gauge("specserve_pool_capacity", "Scope engine pool bound (resident engines never exceed this).", strconv.Itoa(g.PoolCapacity))
	gauge("specserve_registered_analyses", "Registered analyses, read live from the registry.", strconv.Itoa(g.Analyses))
	gauge("specserve_uptime_seconds", "Seconds since the server was constructed.",
		strconv.FormatFloat(g.UptimeSeconds, 'f', 3, 64))
	if g.AuditEnabled {
		counter("specserve_audit_records_total", "Hash-chained audit records appended.", g.AuditRecords)
		gauge("specserve_audit_queue_depth", "Audit entries enqueued and not yet chained by the writer goroutine.", strconv.FormatInt(g.AuditQueueDepth, 10))
		writeHeader(w, "specserve_audit_queue_flushes_total", "counter", "Audit file flushes, by trigger.")
		fmt.Fprintf(w, "specserve_audit_queue_flushes_total{reason=\"batch\"} %d\n", g.AuditFlushesBatch)
		fmt.Fprintf(w, "specserve_audit_queue_flushes_total{reason=\"interval\"} %d\n", g.AuditFlushesInterval)
		fmt.Fprintf(w, "specserve_audit_queue_flushes_total{reason=\"close\"} %d\n", g.AuditFlushesClose)
		counter("specserve_audit_queue_flushed_records_total", "Audit records pushed to the file across all flushes.", g.AuditFlushedRecords)
	}
	if g.TraceCapacity > 0 {
		counter("specserve_traces_recorded_total", "Request traces recorded (including ones overwritten in the ring).", g.TracesRecorded)
		gauge("specserve_trace_ring_capacity", "Bound on resident completed traces served by /v1/traces.", strconv.Itoa(g.TraceCapacity))
	}
	if g.LiveEnabled {
		gauge("specserve_generation", "Live corpus generation (bumped once per absorbed append).", strconv.FormatUint(g.Generation, 10))
		counter("specserve_appends_total", "Live appends absorbed into the corpus (POST /v1/runs and watcher deltas).", g.AppendsTotal)
		counter("specserve_appended_runs_total", "Runs folded into the live corpus across all appends.", g.AppendedRunsTotal)
	}

	writeHeader(w, "specserve_stage_duration_seconds", "histogram",
		"Time spent per request lifecycle stage (queue_wait and serialize per request; engine_build, ingest, and compute once per actual event).")
	for _, stage := range Stages {
		if snap := c.stages[stage].Snapshot(); snap.Count > 0 {
			writeHistogram(w, "specserve_stage_duration_seconds", "stage", stage, snap)
		}
	}

	names, hists := c.analyses()
	writeHeader(w, "specserve_request_duration_seconds", "histogram",
		"End-to-end request latency per served analysis.")
	for i, name := range names {
		writeHistogram(w, "specserve_request_duration_seconds", "analysis", name, hists[i].Snapshot())
	}
}

// WriteRuntimePrometheus renders the specserve_runtime_* section: Go
// runtime introspection (goroutines, heap, GC pause histogram) from one
// RuntimeSampler reading, appended after the serving metrics so the
// whole /metrics page is one exposition document.
func WriteRuntimePrometheus(w io.Writer, rs RuntimeStats) {
	writeHeader(w, "specserve_runtime_goroutines", "gauge", "Live goroutines.")
	fmt.Fprintf(w, "specserve_runtime_goroutines %d\n", rs.Goroutines)
	writeHeader(w, "specserve_runtime_heap_inuse_bytes", "gauge", "Heap bytes in active spans.")
	fmt.Fprintf(w, "specserve_runtime_heap_inuse_bytes %d\n", rs.HeapInuseBytes)
	writeHeader(w, "specserve_runtime_heap_alloc_bytes", "gauge", "Live heap allocation in bytes.")
	fmt.Fprintf(w, "specserve_runtime_heap_alloc_bytes %d\n", rs.HeapAllocBytes)
	writeHeader(w, "specserve_runtime_gc_cycles_total", "counter", "Completed GC cycles.")
	fmt.Fprintf(w, "specserve_runtime_gc_cycles_total %d\n", rs.GCCycles)
	writeHeader(w, "specserve_runtime_gc_pause_seconds", "histogram",
		"Stop-the-world GC pause durations over the process lifetime.")
	s := rs.GCPauses
	for _, b := range s.Buckets {
		le := "+Inf"
		if b.UpperNs >= 0 {
			le = seconds(b.UpperNs)
		}
		fmt.Fprintf(w, "specserve_runtime_gc_pause_seconds_bucket{le=%q} %d\n", le, b.Cumulative)
	}
	fmt.Fprintf(w, "specserve_runtime_gc_pause_seconds_sum %s\n", seconds(s.SumNs))
	fmt.Fprintf(w, "specserve_runtime_gc_pause_seconds_count %d\n", s.Count)
}
