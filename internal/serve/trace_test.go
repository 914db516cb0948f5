package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func getTraces(t *testing.T, s *Server, path string) tracesResponse {
	t.Helper()
	rec := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var resp tracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// findSpan walks the span tree depth-first for the first span named
// name.
func findSpan(sp trace.SpanSnapshot, name string) (trace.SpanSnapshot, bool) {
	if sp.Name == name {
		return sp, true
	}
	for _, c := range sp.Children {
		if got, ok := findSpan(c, name); ok {
			return got, true
		}
	}
	return trace.SpanSnapshot{}, false
}

func attrValue(sp trace.SpanSnapshot, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestTraceColdAnalysis pins the acceptance shape: a cold clustering
// request leaves a trace whose tree holds queue_wait, build, ingest,
// compute, and kmeans-iteration spans with non-zero durations, plus
// the response's ETag and audit digest as root attributes.
func TestTraceColdAnalysis(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/clusters?k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("analysis status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Traceparent") == "" {
		t.Fatal("no Traceparent response header")
	}
	resp := getTraces(t, s, "/v1/traces")
	if resp.Recorded != 1 || len(resp.Traces) != 1 {
		t.Fatalf("recorded %d, resident %d, want 1 and 1", resp.Recorded, len(resp.Traces))
	}
	tr := resp.Traces[0]
	if tr.Root.Name != "GET /v1/analyses/clusters" {
		t.Fatalf("root span %q", tr.Root.Name)
	}
	if tr.DurationNs <= 0 {
		t.Fatalf("root duration %d", tr.DurationNs)
	}
	for _, name := range []string{"queue_wait", "build", "ingest", "compute", "kmeans-iteration", "serialize"} {
		sp, ok := findSpan(tr.Root, name)
		if !ok {
			t.Fatalf("span %q missing from cold trace", name)
		}
		if sp.DurationNs < 0 {
			t.Fatalf("span %q unfinished", name)
		}
		// Stage spans measure real work; only the queue can legally take
		// zero time on an idle server.
		if name != "queue_wait" && sp.DurationNs == 0 {
			t.Fatalf("span %q has zero duration", name)
		}
	}
	compute, _ := findSpan(tr.Root, "compute")
	if v, ok := attrValue(compute, "analysis"); !ok || v != "clusters" {
		t.Fatalf("compute analysis attr = %q, %v", v, ok)
	}
	iter, _ := findSpan(tr.Root, "kmeans-iteration")
	if _, ok := attrValue(iter, "moved"); !ok {
		t.Fatalf("kmeans-iteration lacks moved attr: %+v", iter.Attrs)
	}
	if v, ok := attrValue(tr.Root, "status"); !ok || v != "200" {
		t.Fatalf("root status attr = %q, %v", v, ok)
	}
	if _, ok := attrValue(tr.Root, "etag"); !ok {
		t.Fatal("root lacks etag attr")
	}
	if _, ok := attrValue(tr.Root, "audit_digest"); !ok {
		t.Fatal("root lacks audit_digest attr")
	}

	// The warm repeat pays neither ingest nor compute: its trace must
	// not claim work it skipped.
	get(t, s, "/v1/analyses/clusters?k=2")
	warm := getTraces(t, s, "/v1/traces").Traces[0]
	for _, name := range []string{"ingest", "compute", "kmeans-iteration"} {
		if _, ok := findSpan(warm.Root, name); ok {
			t.Fatalf("warm trace has a %q span", name)
		}
	}
	if _, ok := findSpan(warm.Root, "serialize"); !ok {
		t.Fatal("warm trace lacks serialize span")
	}
}

// TestTraceHACSpans covers the second kernel: an HAC request records
// merge-batch spans.
func TestTraceHACSpans(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/clusters?algo=hac&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	tr := getTraces(t, s, "/v1/traces").Traces[0]
	sp, ok := findSpan(tr.Root, "hac-merge-batch")
	if !ok {
		t.Fatal("no hac-merge-batch span in HAC trace")
	}
	if _, ok := attrValue(sp, "merges"); !ok {
		t.Fatalf("merge-batch lacks merges attr: %+v", sp.Attrs)
	}
}

// TestTraceParentPropagation: an inbound W3C header donates the trace
// id; the response echoes it with a locally minted parent.
func TestTraceParentPropagation(t *testing.T) {
	s, _ := testServer(t, Config{})
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rec := get(t, s, "/healthz", "Traceparent", in)
	out := rec.Header().Get("Traceparent")
	tid, pid, ok := ParseOutbound(out)
	if !ok {
		t.Fatalf("outbound traceparent %q does not parse", out)
	}
	if tid != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not adopted: %q", tid)
	}
	if pid == "00f067aa0ba902b7" {
		t.Fatalf("outbound parent must be the local root span, got the inbound parent")
	}
	tr := getTraces(t, s, "/v1/traces").Traces[0]
	if tr.TraceID != tid || tr.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("ring trace identity = (%s, %s)", tr.TraceID, tr.ParentSpanID)
	}
}

// ParseOutbound re-exports trace.ParseTraceparent for the test above
// without importing it at each call site.
func ParseOutbound(h string) (string, string, bool) { return trace.ParseTraceparent(h) }

// TestTracesQueryParams pins ?n=, ?min_ms=, and their validation.
func TestTracesQueryParams(t *testing.T) {
	s, _ := testServer(t, Config{})
	for i := 0; i < 5; i++ {
		get(t, s, "/healthz")
	}
	if got := getTraces(t, s, "/v1/traces?n=2"); len(got.Traces) != 2 {
		t.Fatalf("?n=2 returned %d traces", len(got.Traces))
	}
	// min_ms=0 admits everything; an absurd threshold admits nothing —
	// and repeating the filtered query is deterministic for a quiet
	// server because the ring only changes when requests finish.
	if got := getTraces(t, s, "/v1/traces?min_ms=0"); len(got.Traces) == 0 {
		t.Fatal("min_ms=0 filtered everything out")
	}
	first := getTraces(t, s, "/v1/traces?min_ms=3600000")
	if len(first.Traces) != 0 {
		t.Fatalf("min_ms=1h admitted %d traces", len(first.Traces))
	}
	for _, bad := range []string{"/v1/traces?n=0", "/v1/traces?n=x", "/v1/traces?min_ms=-1", "/v1/traces?min_ms=x"} {
		if rec := get(t, s, bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}

// TestTraceRingWraparoundServed: a tiny ring serves only the newest
// traces once it wraps.
func TestTraceRingWraparoundServed(t *testing.T) {
	s, _ := testServer(t, Config{TraceBufferSize: 3})
	for i := 0; i < 7; i++ {
		get(t, s, "/healthz")
	}
	resp := getTraces(t, s, "/v1/traces")
	if resp.Capacity != 3 || resp.Recorded != 7 || len(resp.Traces) != 3 {
		t.Fatalf("capacity %d recorded %d resident %d", resp.Capacity, resp.Recorded, len(resp.Traces))
	}
	for i := 1; i < len(resp.Traces); i++ {
		if resp.Traces[i-1].Seq <= resp.Traces[i].Seq {
			t.Fatal("traces not newest-first")
		}
	}
}

// TestTracingDisabled: a negative buffer removes the route, the
// response header, and the per-request tracer.
func TestTracingDisabled(t *testing.T) {
	s, _ := testServer(t, Config{TraceBufferSize: -1})
	rec := get(t, s, "/v1/analyses/clusters?k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("analysis status = %d", rec.Code)
	}
	if h := rec.Header().Get("Traceparent"); h != "" {
		t.Fatalf("untraced response has Traceparent %q", h)
	}
	if rec := get(t, s, "/v1/traces"); rec.Code != http.StatusNotFound {
		t.Fatalf("/v1/traces = %d with tracing disabled, want 404", rec.Code)
	}
}

// TestSlowTraceLog: requests at or above the threshold log one slow
// line carrying the trace id; fast requests do not.
func TestSlowTraceLog(t *testing.T) {
	var mu strings.Builder
	s, _ := testServer(t, Config{
		SlowTrace: time.Nanosecond, // every request qualifies
		Logf:      func(f string, a ...any) { fmt.Fprintf(&mu, f+"\n", a...) },
	})
	get(t, s, "/healthz")
	logged := mu.String()
	if !strings.Contains(logged, "slow request:") {
		t.Fatalf("no slow line in log:\n%s", logged)
	}
	if !strings.Contains(logged, "trace=") {
		t.Fatalf("slow line lacks trace id:\n%s", logged)
	}
}

// TestPprofGate: the flag mounts /debug/pprof for loopback clients
// only; without the flag the route 404s.
func TestPprofGate(t *testing.T) {
	s, _ := testServer(t, Config{Pprof: true})
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/heap", nil)
	req.RemoteAddr = "127.0.0.1:54321"
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("loopback heap profile = %d", rec.Code)
	}
	// httptest.NewRequest's default RemoteAddr (192.0.2.1) is not
	// loopback: the gate must serve the same 404 an unmounted route
	// would.
	if rec := get(t, s, "/debug/pprof/heap"); rec.Code != http.StatusNotFound {
		t.Fatalf("non-loopback heap profile = %d, want 404", rec.Code)
	}
	off, _ := testServer(t, Config{})
	if rec := get(t, off, "/debug/pprof/heap"); rec.Code != http.StatusNotFound {
		t.Fatalf("heap profile without -pprof = %d, want 404", rec.Code)
	}
}

// TestMetricsSurfaceTracing: pool capacity and the trace ring show up
// in /metrics.
func TestMetricsSurfaceTracing(t *testing.T) {
	s, _ := testServer(t, Config{PoolSize: 5})
	get(t, s, "/healthz")
	mx := scrape(t, s)
	if got := mx["specserve_pool_capacity"]; got != 5 {
		t.Fatalf("pool capacity %v, want 5", got)
	}
	if got := mx["specserve_trace_ring_capacity"]; got != DefaultTraceBuffer {
		t.Fatalf("trace ring capacity %v, want %d", got, DefaultTraceBuffer)
	}
	if got := mx["specserve_traces_recorded_total"]; got < 1 {
		t.Fatalf("traces recorded %v, want at least 1", got)
	}
	// The runtime section is rendered by the handler, not by scrape.
	page := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"specserve_pool_capacity 5\n",
		"specserve_trace_ring_capacity " + fmt.Sprint(DefaultTraceBuffer) + "\n",
		"specserve_runtime_goroutines",
		"specserve_runtime_heap_inuse_bytes",
		"specserve_runtime_gc_pause_seconds_count",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page lacks %q", want)
		}
	}
}

// spanCount counts the spans named name in a span tree.
func spanCount(sp trace.SpanSnapshot, name string) int {
	n := 0
	if sp.Name == name {
		n++
	}
	for _, c := range sp.Children {
		n += spanCount(c, name)
	}
	return n
}

// TestTraceAttributesSharedWork pins per-request attribution under
// single-flight: two concurrent cold requests for one analysis on one
// scope share one ingestion and one computation, and both spans land on
// the trace of the request that did the work — the request that merely
// waited records neither. The collector counts each event once.
func TestTraceAttributesSharedWork(t *testing.T) {
	const path = "/v1/analyses/funnel"
	release := make(chan struct{})
	s := New(Config{Base: gatedSource{inner: core.SliceSource(testRuns(t)), release: release}})

	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := get(t, s, path); rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d", path, rec.Code)
			}
		}()
	}
	// Hold the build until both requests have reached the entry, so they
	// race for the ingestion and the computation behind it.
	awaitCohort(t, s, 2)
	close(release)
	wg.Wait()

	traces := getTraces(t, s, "/v1/traces").Traces
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	var worker, waiter *trace.Snapshot
	for i := range traces {
		if _, ok := findSpan(traces[i].Root, "compute"); ok {
			worker = &traces[i]
		} else {
			waiter = &traces[i]
		}
	}
	if worker == nil || waiter == nil {
		t.Fatal("want exactly one trace with a compute span")
	}
	for _, name := range []string{"ingest", "compute"} {
		if n := spanCount(worker.Root, name); n != 1 {
			t.Errorf("worker trace has %d %q spans, want 1", n, name)
		}
		if n := spanCount(waiter.Root, name); n != 0 {
			t.Errorf("waiting trace has %d %q spans, want 0", n, name)
		}
	}
	page := get(t, s, "/metrics").Body.String()
	for _, want := range []string{"specserve_ingests_total 1\n", "specserve_computes_total 1\n"} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics lack %q", strings.TrimSpace(want))
		}
	}
}

// TestTraceStagesMatchHistograms: one traced request's queue_wait,
// serialize and compute spans last exactly as long as the samples the
// same request added to the stage histograms.
func TestTraceStagesMatchHistograms(t *testing.T) {
	s, _ := testServer(t, Config{})
	if rec := get(t, s, "/v1/analyses/clusters?k=2"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	// Read the histograms before /v1/traces adds a request of its own.
	mx := scrape(t, s)
	tr := getTraces(t, s, "/v1/traces").Traces[0]
	for _, stage := range []string{obs.StageQueueWait, obs.StageSerialize, obs.StageCompute} {
		sp, ok := findSpan(tr.Root, stage)
		if !ok {
			t.Fatalf("trace lacks %q span", stage)
		}
		count := mx[`specserve_stage_duration_seconds_count{stage="`+stage+`"}`]
		sumNs := int64(math.Round(1e9 * mx[`specserve_stage_duration_seconds_sum{stage="`+stage+`"}`]))
		if count != 1 || sumNs != sp.DurationNs {
			t.Errorf("%s: histogram count=%v sum=%dns, span %dns", stage, count, sumNs, sp.DurationNs)
		}
	}
}
