package serve

import (
	"sync"
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

// watchHealth is the directory watcher as /metrics shows it, fed only
// by ObserveWatchPoll.
type watchHealth struct {
	mu       sync.Mutex
	observed bool      // a poll has been observed; gates the series
	errors   int64     // failed polls
	lastOK   time.Time // tick of the last successful poll
}

// ObserveWatchPoll records one poll of the corpus-directory watcher for
// /metrics: a failed poll (err != nil) counts toward
// specserve_watch_poll_errors_total, and a successful one's tick
// becomes the time specserve_watch_last_success_age_seconds measures
// from (the server's start until one succeeds). Both series appear
// with the first observed poll. cmd/specserve calls it from the
// live.Runner's OnPoll, the callback that also logs watch_error, so the
// log and the metrics count the same polls.
func (s *Server) ObserveWatchPoll(tick time.Time, err error) {
	s.watch.mu.Lock()
	defer s.watch.mu.Unlock()
	s.watch.observed = true
	if err != nil {
		s.watch.errors++
	} else {
		s.watch.lastOK = tick
	}
}

// gauges assembles the exposition's counter/gauge values. It is the one
// place that reads the gate, pool, audit, trace, live and watcher
// counters.
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
	s.watch.mu.Lock()
	if s.watch.observed {
		g.WatchEnabled = true
		g.WatchPollErrors = s.watch.errors
		lastOK := s.watch.lastOK
		if lastOK.IsZero() { // no poll has succeeded: blind since start
			lastOK = s.started
		}
		g.WatchLastSuccessAgeSeconds = time.Since(lastOK).Seconds()
	}
	s.watch.mu.Unlock()
	return g
}
