package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		500 * time.Nanosecond, // first bucket (≤1µs)
		2 * time.Microsecond,  // ≤4µs
		3 * time.Microsecond,  // ≤4µs
		time.Millisecond,      // ≤~1ms bucket (1.024ms bound)
		10 * time.Second,      // overflow
	} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantSum := int64(500 + 2000 + 3000 + 1_000_000 + 10_000_000_000)
	if s.SumNs != wantSum {
		t.Errorf("sum = %d, want %d", s.SumNs, wantSum)
	}
	// Cumulative counts: the ≤4µs bucket holds the first three.
	if s.Buckets[1].Cumulative != 3 {
		t.Errorf("≤4µs cumulative = %d, want 3", s.Buckets[1].Cumulative)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.UpperNs != -1 || last.Cumulative != 5 {
		t.Errorf("overflow bucket = %+v, want upper -1 cumulative 5", last)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations at ~2µs: p50 and p95 must land inside the
	// (1µs, 4µs] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Microsecond)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95} {
		got := s.QuantileNs(q)
		if got <= 1_000 || got > 4_000 {
			t.Errorf("q%.2f = %dns, want within (1µs, 4µs]", q, got)
		}
	}
	if (HistogramSnapshot{}).QuantileNs(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	// All observations in the overflow bucket clamp to the largest
	// finite bound instead of inventing an infinite latency.
	var over Histogram
	over.Observe(time.Minute)
	if got := over.Snapshot().QuantileNs(0.5); got != bucketBounds[len(bucketBounds)-1] {
		t.Errorf("overflow quantile = %d, want clamp to %d", got, bucketBounds[len(bucketBounds)-1])
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.SumNs != 0 {
		t.Errorf("negative observation: count=%d sum=%d, want 1/0", s.Count, s.SumNs)
	}
}

// TestCollectorStageCounts: request-owned stages count per request,
// event-fed stages once per event, and every request naming an
// analysis lands in that analysis's latency histogram.
func TestCollectorStageCounts(t *testing.T) {
	c := NewCollector()
	c.ObserveRequest(&RequestMetrics{
		Analysis: "fig3", Status: 200,
		QueueWaitNs: 1_000, SerializeNs: 2_000, TotalNs: 5_000_000,
	})
	c.ObserveRequest(&RequestMetrics{
		Analysis: "fig3", Status: 304,
		QueueWaitNs: 1_000, TotalNs: 2_000,
	})
	c.ObserveRequest(&RequestMetrics{Status: 400, TotalNs: 1_000})
	c.ObserveBuild(3_000_000)
	c.ObserveIngest(9_000_000)
	c.ObserveCompute(4_000_000)

	if got := c.stages[StageQueueWait].Snapshot().Count; got != 2 {
		t.Errorf("queue_wait count = %d, want 2", got)
	}
	if got := c.stages[StageSerialize].Snapshot().Count; got != 1 {
		t.Errorf("serialize count = %d, want 1", got)
	}
	for _, stage := range []string{StageEngineBuild, StageIngest, StageCompute} {
		if got := c.stages[stage].Snapshot().Count; got != 1 {
			t.Errorf("%s count = %d, want 1 (event-fed, not per-request)", stage, got)
		}
	}
	names, hists := c.analyses()
	if len(names) != 1 || names[0] != "fig3" {
		t.Fatalf("analyses = %v, want [fig3]", names)
	}
	// Both the 200 and the 304 carried a total, so the per-analysis
	// latency histogram has two observations.
	fig3 := hists[0].Snapshot()
	if fig3.Count != 2 {
		t.Errorf("fig3 latency count = %d, want 2", fig3.Count)
	}
	if p50, p95 := fig3.QuantileNs(0.50), fig3.QuantileNs(0.95); p95 < p50 {
		t.Errorf("p95 %d < p50 %d", p95, p50)
	}
	if c.requests.Load() != 3 || c.notModified.Load() != 1 || c.clientErrs.Load() != 1 {
		t.Errorf("counters = %d/%d/%d, want 3/1/1",
			c.requests.Load(), c.notModified.Load(), c.clientErrs.Load())
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.ObserveRequest(&RequestMetrics{
					Analysis: "fig3", Status: 200,
					QueueWaitNs: 100, SerializeNs: 100, TotalNs: 1_000,
				})
				c.ObserveCompute(1_000)
			}
		}()
	}
	wg.Wait()
	if got := c.requests.Load(); got != 1600 {
		t.Errorf("requests = %d, want 1600", got)
	}
	if got := c.analysisHist("fig3").Snapshot().Count; got != 1600 {
		t.Errorf("latency count = %d, want 1600", got)
	}
	if got := c.stages[StageCompute].Snapshot().Count; got != 1600 {
		t.Errorf("compute count = %d, want 1600", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	c.ObserveRequest(&RequestMetrics{
		Analysis: "fig3", Status: 200,
		QueueWaitNs: 1_000, SerializeNs: 2_000, TotalNs: 5_000_000,
	})
	c.ObserveIngest(9_000_000)
	var b strings.Builder
	c.WritePrometheus(&b, ServerGauges{
		Requests: 1, PoolEngines: 1, EngineBuilds: 1,
		UptimeSeconds: 1.5, Analyses: 20,
		AuditEnabled: true, AuditRecords: 7,
	})
	out := b.String()
	for _, want := range []string{
		"# TYPE specserve_requests_total counter",
		"specserve_requests_total 1",
		"specserve_engine_builds_total 1",
		"specserve_ingests_total 1",
		"specserve_audit_records_total 7",
		"specserve_pool_engines 1",
		`specserve_stage_duration_seconds_bucket{stage="queue_wait",le="0.000001"} 1`,
		`specserve_stage_duration_seconds_bucket{stage="ingest",le="+Inf"} 1`,
		`specserve_stage_duration_seconds_sum{stage="ingest"} 0.009`,
		`specserve_request_duration_seconds_count{analysis="fig3"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Audit metrics disappear when the log is disabled.
	var off strings.Builder
	c.WritePrometheus(&off, ServerGauges{})
	if strings.Contains(off.String(), "audit_records") {
		t.Error("audit metric exposed with audit disabled")
	}
}
