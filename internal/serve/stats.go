package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// counters holds the gate-owned serving metrics. Request, 304, and
// error counts live in the server's obs.Collector (the same source the
// /metrics exposition reads), so the two surfaces can never disagree.
type counters struct {
	rejected atomic.Int64 // 503s from the concurrency gate
	inFlight atomic.Int64
}

// AuditStats reports the audit log's state in /v1/stats.
type AuditStats struct {
	// Path of the chained log file.
	Path string `json:"path"`
	// Records chained over the process lifetime.
	Records int64 `json:"records"`
}

// StatsSnapshot is one point-in-time reading of the serving metrics,
// the /v1/stats response body.
//
// Self-count rule: a snapshot includes only requests that finished
// before it was taken. The /v1/stats request that carries a snapshot is
// still in flight while the snapshot is assembled, so it is never
// included — two back-to-back /v1/stats calls with no other traffic
// report Requests of N and N+1, not N+1 and N+2.
type StatsSnapshot struct {
	// StartedAt is the server construction time, RFC3339Nano UTC.
	StartedAt string `json:"started_at"`
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests served (all endpoints, all statuses) — completed
	// requests only, per the self-count rule above.
	Requests int64 `json:"requests"`
	// NotModified counts 304 responses — traffic served with zero
	// recomputation.
	NotModified int64 `json:"not_modified"`
	// ClientErrors counts 4xx responses (bad filters, unknown analyses,
	// rejected parameters).
	ClientErrors int64 `json:"client_errors"`
	// Errors counts 5xx responses.
	Errors int64 `json:"errors"`
	// RejectedBusy counts requests whose client gave up while waiting
	// at the concurrency gate.
	RejectedBusy int64 `json:"rejected_busy"`
	// InFlight is the number of requests currently inside the gate.
	InFlight int64 `json:"in_flight"`
	// PoolEngines is the number of resident scope engines; PoolCapacity
	// is the LRU bound they never exceed, so occupancy is
	// PoolEngines/PoolCapacity without knowing the server's config.
	PoolEngines  int `json:"pool_engines"`
	PoolCapacity int `json:"pool_capacity"`
	// EngineBuilds counts engines built over the server's lifetime
	// (PoolEngines plus evicted ones; single-flight keeps this at one
	// per cold scope no matter the concurrency).
	EngineBuilds int64 `json:"engine_builds"`
	// PoolEvictions counts scopes dropped past the LRU bound.
	PoolEvictions int64 `json:"pool_evictions"`
	// PoolHits counts requests that found their scope engine resident;
	// PoolMisses ones that inserted a fresh pool entry; PoolJoins ones
	// that waited on another request's single-flight build.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	PoolJoins  int64 `json:"pool_joins"`
	// Analyses is the registry size, read live so late registrations
	// stay consistent with the /v1/analyses listing.
	Analyses int `json:"analyses"`
	// Stages breaks serving time down by lifecycle stage: queue wait
	// and serialize observed per request, engine build / ingest /
	// compute observed once per actual event. Bucketed percentiles are
	// histogram estimates (±2× bucket resolution).
	Stages []obs.StageSummary `json:"stages,omitempty"`
	// AnalysisLatency is the end-to-end request latency per served
	// analysis, same histogram estimates.
	AnalysisLatency []obs.AnalysisSummary `json:"analysis_latency,omitempty"`
	// Audit reports the hash-chained audit log, when enabled.
	Audit *AuditStats `json:"audit,omitempty"`
	// Traces reports the request-trace ring, when tracing is enabled.
	Traces *TraceStats `json:"traces,omitempty"`
	// Live reports the append plane, when live ingestion is enabled.
	Live *LiveStats `json:"live,omitempty"`
}

// LiveStats reports the live-ingestion plane in /v1/stats.
type LiveStats struct {
	// Generation is the corpus generation: 0 at boot, bumped once per
	// absorbed append. Every bump rolls every scope's ETag.
	Generation uint64 `json:"generation"`
	// Appends counts absorbed appends (POST /v1/runs bodies and watcher
	// deltas); AppendedRuns counts the runs they carried.
	Appends      int64 `json:"appends"`
	AppendedRuns int64 `json:"appended_runs"`
}

// TraceStats reports the trace ring's state in /v1/stats.
type TraceStats struct {
	// Capacity is the ring bound (resident traces never exceed it).
	Capacity int `json:"capacity"`
	// Recorded counts traces pushed over the process lifetime,
	// including ones since overwritten.
	Recorded uint64 `json:"recorded"`
}

// Stats returns a snapshot of the serving metrics.
func (s *Server) Stats() StatsSnapshot {
	sum := s.metrics.Summarize()
	snap := StatsSnapshot{
		StartedAt:       s.started.UTC().Format(time.RFC3339Nano),
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Requests:        s.metrics.Requests(),
		NotModified:     s.metrics.NotModified(),
		ClientErrors:    s.metrics.ClientErrors(),
		Errors:          s.metrics.ServerErrors(),
		RejectedBusy:    s.counters.rejected.Load(),
		InFlight:        s.counters.inFlight.Load(),
		PoolEngines:     s.pool.len(),
		PoolCapacity:    s.pool.max,
		EngineBuilds:    s.pool.builds.Load(),
		PoolEvictions:   s.pool.evictions.Load(),
		PoolHits:        s.pool.hits.Load(),
		PoolMisses:      s.pool.misses.Load(),
		PoolJoins:       s.pool.joins.Load(),
		Analyses:        len(analysis.Names()),
		Stages:          sum.Stages,
		AnalysisLatency: sum.Analyses,
	}
	if s.audit != nil {
		snap.Audit = &AuditStats{Path: s.audit.Path(), Records: s.audit.Records()}
	}
	if s.traces != nil {
		snap.Traces = &TraceStats{Capacity: s.traces.Capacity(), Recorded: s.traces.Recorded()}
	}
	if s.pool.live != nil {
		snap.Live = &LiveStats{
			Generation:   s.pool.live.Generation(),
			Appends:      s.pool.appends.Load(),
			AppendedRuns: s.pool.appendedRuns.Load(),
		}
	}
	return snap
}

// gauges assembles the exposition's counter/gauge values from the same
// sources Stats reads.
func (s *Server) gauges() obs.ServerGauges {
	rings := cluster.MemoRingCounters()
	pc := core.ParseCacheCounters()
	g := obs.ServerGauges{
		Requests:      s.metrics.Requests(),
		NotModified:   s.metrics.NotModified(),
		ClientErrors:  s.metrics.ClientErrors(),
		ServerErrors:  s.metrics.ServerErrors(),
		RejectedBusy:  s.counters.rejected.Load(),
		InFlight:      s.counters.inFlight.Load(),
		PoolEngines:   s.pool.len(),
		PoolCapacity:  s.pool.max,
		EngineBuilds:  s.pool.builds.Load(),
		PoolEvictions: s.pool.evictions.Load(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Analyses:      len(analysis.Names()),

		PoolHits:                  s.pool.hits.Load(),
		PoolMisses:                s.pool.misses.Load(),
		PoolJoins:                 s.pool.joins.Load(),
		PoolEvictionsBuildFailed:  s.pool.evictBuildFailed.Load(),
		PoolEvictionsIngestFailed: s.pool.evictIngestFailed.Load(),

		MemoRings: []obs.MemoRingGauge{
			{Ring: "partition", Hits: rings.Partition.Hits,
				Misses: rings.Partition.Misses, Evictions: rings.Partition.Evictions},
			{Ring: "sweep", Hits: rings.Sweep.Hits,
				Misses: rings.Sweep.Misses, Evictions: rings.Sweep.Evictions},
			{Ring: "warm", Hits: rings.Warm.Hits,
				Misses: rings.Warm.Misses, Evictions: rings.Warm.Evictions},
		},
		ParseCacheHits:          pc.Hits,
		ParseCacheMisses:        pc.Misses,
		ParseCacheInvalidations: pc.Invalidations,
		ParseCachePrunes:        pc.Prunes,
	}
	if s.audit != nil {
		g.AuditEnabled = true
		g.AuditRecords = s.audit.Records()
		g.AuditQueueDepth = int64(s.audit.QueueDepth())
		fs := s.audit.FlushStats()
		g.AuditFlushesBatch = fs.Batch
		g.AuditFlushesInterval = fs.Interval
		g.AuditFlushesClose = fs.Close
		g.AuditFlushedRecords = fs.FlushedRecords
	}
	if s.traces != nil {
		g.TraceCapacity = s.traces.Capacity()
		g.TracesRecorded = int64(s.traces.Recorded())
	}
	if s.pool.live != nil {
		g.LiveEnabled = true
		g.Generation = s.pool.live.Generation()
		g.AppendsTotal = s.pool.appends.Load()
		g.AppendedRunsTotal = s.pool.appendedRuns.Load()
	}
	return g
}
