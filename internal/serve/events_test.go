package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/evlog"
)

// syncBuf is a mutex-guarded event sink: requests log concurrently.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// eventSeq extracts the event= value of each line matching any of the
// given event names, in emission order.
func eventSeq(lines []string, names ...string) []string {
	var seq []string
	for _, line := range lines {
		for _, n := range names {
			if strings.Contains(line, "event="+n+" ") || strings.HasSuffix(line, "event="+n) {
				seq = append(seq, n)
				break
			}
		}
	}
	return seq
}

func linesWith(lines []string, substr string) []string {
	var out []string
	for _, l := range lines {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return out
}

// TestEventSequenceColdWarmEvict pins the state-plane event log for the
// canonical pool lifecycle: a cold scope logs exactly one build, a warm
// repeat logs nothing, and pushing a second scope through a capacity-1
// pool logs exactly one lru eviction of the first — in that order.
func TestEventSequenceColdWarmEvict(t *testing.T) {
	var sink syncBuf
	ev := evlog.New(&sink, evlog.Options{})
	s, _ := testServer(t, Config{PoolSize: 1, Events: ev})

	for _, path := range []string{
		"/v1/analyses/funnel",                   // cold: build scope ""
		"/v1/analyses/funnel",                   // warm: no pool events
		"/v1/analyses/funnel?filter=vendor=amd", // evicts "" then builds
	} {
		if rec := get(t, s, path); rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
	}

	lines := sink.lines()
	seq := eventSeq(lines, "pool_build", "pool_evict")
	want := []string{"pool_build", "pool_evict", "pool_build"}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("pool event sequence = %v, want %v\nlog:\n%s",
			seq, want, strings.Join(lines, "\n"))
	}

	builds := linesWith(lines, "event=pool_build ")
	if len(builds) != 2 {
		t.Fatalf("pool_build lines = %d, want 2", len(builds))
	}
	if !strings.Contains(builds[0], `scope=""`) || !strings.Contains(builds[0], "joins=0") {
		t.Errorf("first build line = %q, want scope=\"\" joins=0", builds[0])
	}
	if !strings.Contains(builds[1], `scope="vendor=amd"`) {
		t.Errorf("second build line = %q, want scope=\"vendor=amd\"", builds[1])
	}
	evicts := linesWith(lines, "event=pool_evict")
	if len(evicts) != 1 {
		t.Fatalf("pool_evict lines = %d, want 1:\n%s", len(evicts), strings.Join(evicts, "\n"))
	}
	if !strings.Contains(evicts[0], `scope=""`) || !strings.Contains(evicts[0], "reason=lru") {
		t.Errorf("evict line = %q, want scope=\"\" reason=lru", evicts[0])
	}

	// The counters agree with the log.
	st := s.gauges()
	if st.PoolEvictions != 1 || st.EngineBuilds != 2 {
		t.Errorf("evictions=%d builds=%d, want 1, 2", st.PoolEvictions, st.EngineBuilds)
	}
	if st.PoolHits != 1 || st.PoolMisses != 2 {
		t.Errorf("pool hits=%d misses=%d, want 1, 2", st.PoolHits, st.PoolMisses)
	}
}

// TestRequestEventAttrs pins the structured request line: every request
// carries a non-empty trace_id, its status_class, and whether it was
// answered by ETag revalidation.
func TestRequestEventAttrs(t *testing.T) {
	var sink syncBuf
	s, _ := testServer(t, Config{Events: evlog.New(&sink, evlog.Options{})})

	rec := get(t, s, "/v1/analyses/funnel")
	if rec.Code != 200 {
		t.Fatalf("cold = %d: %s", rec.Code, rec.Body)
	}
	etag := rec.Header().Get("ETag")
	if rec := get(t, s, "/v1/analyses/funnel", "If-None-Match", etag); rec.Code != 304 {
		t.Fatalf("conditional = %d, want 304", rec.Code)
	}
	if rec := get(t, s, "/v1/analyses/nosuch"); rec.Code != 404 {
		t.Fatalf("unknown analysis = %d, want 404", rec.Code)
	}

	reqs := linesWith(sink.lines(), "event=request")
	if len(reqs) != 3 {
		t.Fatalf("request events = %d, want 3:\n%s", len(reqs), strings.Join(reqs, "\n"))
	}
	traceID := regexp.MustCompile(`trace_id=[0-9a-f]{32}`)
	for i, line := range reqs {
		if !traceID.MatchString(line) {
			t.Errorf("request line %d missing trace_id: %q", i, line)
		}
	}
	for i, want := range []string{
		"status=200 status_class=2xx etag_revalidated=false",
		"status=304 status_class=3xx etag_revalidated=true",
		"status=404 status_class=4xx etag_revalidated=false",
	} {
		if !strings.Contains(reqs[i], want) {
			t.Errorf("request line %d = %q, want %q", i, reqs[i], want)
		}
	}
	if !strings.Contains(reqs[2], "level=warn") {
		t.Errorf("4xx logged at %q, want level=warn", reqs[2])
	}
	if !strings.Contains(reqs[0], "analysis=funnel") {
		t.Errorf("attributable 200 missing analysis attr: %q", reqs[0])
	}
}

// gatedSource holds the corpus fingerprint hostage until released, so a
// test can park an arbitrary single-flight cohort inside one pool build.
type gatedSource struct {
	inner   core.Source
	release chan struct{}
}

func (g gatedSource) Name() string { return g.inner.Name() }

func (g gatedSource) Each(workers int, yield func(*model.Run) error) error {
	return g.inner.Each(workers, yield)
}

func (g gatedSource) Fingerprint() (string, error) {
	<-g.release
	return core.Digest("gated", g.inner.Name()), nil
}

// awaitCohort waits until n requests have arrived at the unfiltered
// scope's pool entry (arrivals is bumped before the build's once, so
// this converges while a gatedSource holds the build).
func awaitCohort(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ent *poolEntry
		s.pool.mu.Lock()
		if el, ok := s.pool.byScope[""]; ok {
			ent = el.Value.(*poolEntry)
		}
		s.pool.mu.Unlock()
		if ent != nil && ent.arrivals.Load() == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cohort never assembled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolBuildJoins parks N concurrent cold requests on one
// single-flight build and asserts the pool logs exactly one pool_build
// with joins=N-1 — the joins counter is who waited, not who asked.
func TestPoolBuildJoins(t *testing.T) {
	const n = 8
	var sink syncBuf
	release := make(chan struct{})
	s := New(Config{
		Base:   gatedSource{inner: core.SliceSource(testRuns(t)), release: release},
		Events: evlog.New(&sink, evlog.Options{}),
	})

	var wg sync.WaitGroup
	var bad atomic.Int64
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != 200 {
				bad.Add(1)
			}
		}()
	}

	// Release the build only once the whole cohort has arrived.
	awaitCohort(t, s, n)
	close(release)
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d requests failed", bad.Load())
	}
	if got := s.pool.builds.Load(); got != 1 {
		t.Errorf("builds = %d, want 1 (single-flight)", got)
	}
	if got := s.pool.joins.Load(); got != n-1 {
		t.Errorf("joins = %d, want %d", got, n-1)
	}
	builds := linesWith(sink.lines(), "event=pool_build ")
	if len(builds) != 1 {
		t.Fatalf("pool_build lines = %d, want 1", len(builds))
	}
	if want := fmt.Sprintf("joins=%d", n-1); !strings.Contains(builds[0], want) {
		t.Errorf("build line = %q, want %s", builds[0], want)
	}
}

// TestPoolViewStable pins /v1/pool's determinism contract: on a
// quiesced server, repeated reads are byte-identical — the snapshot
// neither touches the LRU order nor bumps any counter it reports.
func TestPoolViewStable(t *testing.T) {
	s, _ := testServer(t, Config{})
	for _, path := range []string{
		"/v1/analyses/funnel",
		"/v1/analyses/funnel", // memo + pool hit
		"/v1/analyses/clusters?k=4",
		"/v1/analyses/funnel?filter=vendor=amd",
	} {
		if rec := get(t, s, path); rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
	}

	first := get(t, s, "/v1/pool")
	if first.Code != 200 {
		t.Fatalf("/v1/pool = %d: %s", first.Code, first.Body)
	}
	for i := 0; i < 3; i++ {
		again := get(t, s, "/v1/pool")
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("read %d differs:\n%s\nvs\n%s", i+2, first.Body, again.Body)
		}
	}

	var view PoolSnapshot
	if err := json.Unmarshal(first.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Capacity != DefaultPoolSize || len(view.Engines) != 2 {
		t.Fatalf("capacity=%d engines=%d, want %d, 2", view.Capacity, len(view.Engines), DefaultPoolSize)
	}
	// Deterministic order: sorted by canonical filter, "" first.
	if view.Engines[0].Filter != "" || view.Engines[1].Filter != "vendor=amd" {
		t.Errorf("engine order = %q, %q", view.Engines[0].Filter, view.Engines[1].Filter)
	}
	base := view.Engines[0]
	if base.Fingerprint == "" || base.Building {
		t.Errorf("base engine not built: %+v", base)
	}
	if base.Hits != 2 { // funnel repeat + clusters
		t.Errorf("base hits = %d, want 2", base.Hits)
	}
	if base.MemoEntries != 2 || base.MemoHits < 1 {
		t.Errorf("base memo entries=%d hits=%d, want 2, ≥1", base.MemoEntries, base.MemoHits)
	}
	if base.RunsIngested == 0 || base.ApproxBytes == 0 {
		t.Errorf("base runs=%d approx_bytes=%d, want both >0", base.RunsIngested, base.ApproxBytes)
	}
}

// TestTextLogFormatPinned pins the legacy one-line request log
// byte-for-byte: -log-format text must keep emitting exactly this
// shape no matter what the structured event log grows.
func TestTextLogFormatPinned(t *testing.T) {
	var mu sync.Mutex
	var formats, lines []string
	s, _ := testServer(t, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		formats = append(formats, format)
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(formats) != 1 {
		t.Fatalf("log lines = %d, want 1", len(formats))
	}
	if formats[0] != "%s %s %d %dB %s" {
		t.Fatalf("format = %q, want %q", formats[0], "%s %s %d %dB %s")
	}
	shape := regexp.MustCompile(`^GET /v1/analyses/funnel 200 \d+B \d+(\.\d+)?(ns|µs|ms|s)$`)
	if !shape.MatchString(lines[0]) {
		t.Errorf("line = %q does not match %v", lines[0], shape)
	}
}

// TestMetricsNewFamilies pins the introspection families added to the
// exposition: pool traffic, memo and memo-ring counters, and the gob
// parse cache, with the eviction counter now labeled by reason.
func TestMetricsNewFamilies(t *testing.T) {
	s, _ := testServer(t, Config{})
	get(t, s, "/v1/analyses/funnel")
	get(t, s, "/v1/analyses/funnel")

	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"specserve_pool_hits_total 1",
		"specserve_pool_misses_total 1",
		"specserve_pool_joins_total 0",
		`specserve_pool_evictions_total{reason="lru"} 0`,
		`specserve_pool_evictions_total{reason="build_failed"} 0`,
		`specserve_pool_evictions_total{reason="ingestion_failed"} 0`,
		"specserve_memo_hits_total",
		"specserve_memo_misses_total",
		`specserve_memo_ring_hits_total{ring="partition"}`,
		`specserve_memo_ring_misses_total{ring="sweep"}`,
		`specserve_memo_ring_evictions_total{ring="partition"}`,
		"specserve_parse_cache_hits_total",
		"specserve_parse_cache_misses_total",
		"specserve_parse_cache_invalidations_total",
		"specserve_parse_cache_prunes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
