package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
)

// counters holds the gate-owned serving metrics. Request, 304, and
// error counts live in the server's obs.Collector.
type counters struct {
	rejected atomic.Int64 // 503s from the concurrency gate
	inFlight atomic.Int64
}

// gauges assembles the exposition's counter/gauge values. It is the one
// place that reads the gate, pool, audit, trace and live counters.
func (s *Server) gauges() obs.ServerGauges {
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
