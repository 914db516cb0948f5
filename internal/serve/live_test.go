package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/model"
	"repro/internal/synth"
)

// postRun POSTs one result-file body to /v1/runs.
func postRun(t testing.TB, s *Server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// resultFileBytes renders runs to result files on disk and reads one
// back — the exact body a client would POST.
func resultFileBytes(t testing.TB, r *model.Run) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, []*model.Run{r}, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, r.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// funnelRaw decodes the Raw corpus count out of a funnel response body.
func funnelRaw(t testing.TB, body []byte) int {
	t.Helper()
	var resp struct {
		Value struct{ Raw int }
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode funnel response: %v", err)
	}
	return resp.Value.Raw
}

// TestLiveAppendRollover walks the satellite scenario end to end: warm
// 304 before the append, POST /v1/runs, 200 with a rolled ETag after,
// and the generation/append counters surfacing in /v1/pool and
// /metrics.
func TestLiveAppendRollover(t *testing.T) {
	runs := testRuns(t)
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	s := New(Config{Base: core.SliceSource(base), Live: true})

	first := get(t, s, "/v1/analyses/funnel")
	if first.Code != http.StatusOK {
		t.Fatalf("funnel = %d: %s", first.Code, first.Body)
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on live funnel response")
	}
	if got := funnelRaw(t, first.Body.Bytes()); got != len(base) {
		t.Fatalf("funnel.Raw = %d, want %d", got, len(base))
	}
	// Warm revalidation before the append: nothing changed, 304.
	if rec := get(t, s, "/v1/analyses/funnel", "If-None-Match", etag); rec.Code != http.StatusNotModified {
		t.Fatalf("pre-append revalidation = %d, want 304", rec.Code)
	}

	rec := postRun(t, s, resultFileBytes(t, extra))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/runs = %d: %s", rec.Code, rec.Body)
	}
	var ar appendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.ID != extra.ID || ar.Generation != 1 {
		t.Fatalf("append response = %+v, want id=%s generation=1", ar, extra.ID)
	}

	// The old validator no longer matches: full 200 with the appended
	// run in the corpus and a rolled ETag.
	after := get(t, s, "/v1/analyses/funnel", "If-None-Match", etag)
	if after.Code != http.StatusOK {
		t.Fatalf("post-append revalidation = %d, want 200", after.Code)
	}
	if after.Header().Get("ETag") == etag {
		t.Error("ETag did not roll across the append")
	}
	if got := funnelRaw(t, after.Body.Bytes()); got != len(base)+1 {
		t.Errorf("post-append funnel.Raw = %d, want %d", got, len(base)+1)
	}

	mx := scrape(t, s)
	for _, series := range []string{"specserve_generation", "specserve_appends_total", "specserve_appended_runs_total"} {
		if got, ok := mx[series]; !ok || got != 1 {
			t.Errorf("%s = %v (present %v), want 1", series, got, ok)
		}
	}
	var pool PoolSnapshot
	if err := json.Unmarshal(get(t, s, "/v1/pool").Body.Bytes(), &pool); err != nil {
		t.Fatal(err)
	}
	if len(pool.Engines) != 1 {
		t.Fatalf("pool holds %d engines, want 1", len(pool.Engines))
	}
	ent := pool.Engines[0]
	if ent.Generation != 1 || ent.RunsAppended != 1 || ent.RunsIngested != len(base)+1 {
		t.Errorf("pool view = gen %d appended %d ingested %d, want 1/1/%d",
			ent.Generation, ent.RunsAppended, ent.RunsIngested, len(base)+1)
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"specserve_generation 1",
		"specserve_appends_total 1",
		"specserve_appended_runs_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A body the parser rejects is the client's fault.
	if rec := postRun(t, s, []byte("not a result file")); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage POST = %d, want 400", rec.Code)
	}
	// A result file that would parse but is padded past the body limit
	// is too large, not malformed, and appends nothing.
	padded := append(resultFileBytes(t, extra), bytes.Repeat([]byte("\n"), maxRunBody)...)
	if rec := postRun(t, s, padded); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST = %d, want 413: %s", rec.Code, rec.Body)
	}
	if got := scrape(t, s)["specserve_generation"]; got != 1 {
		t.Errorf("specserve_generation after rejected POSTs = %v, want 1", got)
	}
}

// TestLiveDisabled: a static server exposes none of the append plane.
func TestLiveDisabled(t *testing.T) {
	s, _ := testServer(t, Config{})
	if rec := postRun(t, s, []byte("x")); rec.Code != http.StatusNotFound {
		t.Errorf("POST /v1/runs on static server = %d, want 404", rec.Code)
	}
	if _, err := s.AppendRuns(testRuns(t)[0]); err == nil {
		t.Error("AppendRuns succeeded on a static server")
	}
	if _, err := s.ResetPool("test"); err == nil {
		t.Error("ResetPool succeeded on a static server")
	}
	if s.Generation() != 0 {
		t.Errorf("static Generation = %d", s.Generation())
	}
	if m := get(t, s, "/metrics").Body.String(); strings.Contains(m, "specserve_generation") ||
		strings.Contains(m, "specserve_appends_total") || strings.Contains(m, "specserve_appended_runs_total") {
		t.Error("static /metrics exposes the live counters")
	}
}

// TestLiveAppendScopes: an append reaches each resident scope through
// its own predicate — the matching scope's corpus grows, the
// non-matching scope's does not — while every scope's ETag rolls (the
// fingerprint composes the generation).
func TestLiveAppendScopes(t *testing.T) {
	runs := testRuns(t)
	var amd *model.Run
	for _, r := range runs {
		if r.CPUVendor == model.VendorAMD {
			amd = r
			break
		}
	}
	if amd == nil {
		t.Fatal("test corpus has no AMD run")
	}
	s := New(Config{Base: core.SliceSource(runs), Live: true})

	amdBefore := get(t, s, "/v1/analyses/funnel?filter=vendor=amd")
	intelBefore := get(t, s, "/v1/analyses/funnel?filter=vendor=intel")
	extra := *amd
	extra.ID = "live-scope-extra"
	if _, err := s.AppendRuns(&extra); err != nil {
		t.Fatal(err)
	}
	amdAfter := get(t, s, "/v1/analyses/funnel?filter=vendor=amd")
	intelAfter := get(t, s, "/v1/analyses/funnel?filter=vendor=intel")

	if got, want := funnelRaw(t, amdAfter.Body.Bytes()), funnelRaw(t, amdBefore.Body.Bytes())+1; got != want {
		t.Errorf("amd scope funnel.Raw = %d, want %d", got, want)
	}
	if got, want := funnelRaw(t, intelAfter.Body.Bytes()), funnelRaw(t, intelBefore.Body.Bytes()); got != want {
		t.Errorf("intel scope funnel.Raw = %d, want %d (append must not leak)", got, want)
	}
	for _, pair := range [][2]*httptest.ResponseRecorder{
		{amdBefore, amdAfter}, {intelBefore, intelAfter},
	} {
		if pair[0].Header().Get("ETag") == pair[1].Header().Get("ETag") {
			t.Error("scope ETag did not roll across the append")
		}
	}
}

// TestLiveAbsorbBaseGrowth covers the watcher path: a result file lands
// in the corpus directory, the watcher parses it and calls
// AbsorbBaseGrowth. Resident engines fold it in through the delta path;
// a scope built afterwards streams it from the directory — and the run
// arrives exactly once on each path.
func TestLiveAbsorbBaseGrowth(t *testing.T) {
	runs := testRuns(t)
	dir := t.TempDir()
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	if err := core.WriteCorpus(dir, base, 0); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Base: core.DirSource{Dir: dir}, Live: true})
	before := get(t, s, "/v1/analyses/funnel")
	if got := funnelRaw(t, before.Body.Bytes()); got != len(base) {
		t.Fatalf("funnel.Raw = %d, want %d", got, len(base))
	}

	// The "watcher" sees a new file, parses it, absorbs it.
	if err := core.WriteCorpus(dir, []*model.Run{extra}, 0); err != nil {
		t.Fatal(err)
	}
	parsed, err := core.ParseResultFile(filepath.Join(dir, extra.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AbsorbBaseGrowth(parsed); err != nil {
		t.Fatal(err)
	}

	// The warm engine absorbed it via the delta path — once.
	after := get(t, s, "/v1/analyses/funnel")
	if got := funnelRaw(t, after.Body.Bytes()); got != len(base)+1 {
		t.Errorf("warm engine funnel.Raw = %d, want %d", got, len(base)+1)
	}
	if before.Header().Get("ETag") == after.Header().Get("ETag") {
		t.Error("ETag did not roll across the absorbed growth")
	}
	// A cold scope streams the directory — which already holds the
	// file — so it must see the run exactly once too, not twice.
	vendor := strings.ToLower(extra.CPUVendor.String())
	want := 1
	for _, r := range base {
		if r.CPUVendor == extra.CPUVendor {
			want++
		}
	}
	cold := get(t, s, "/v1/analyses/funnel?filter=vendor="+vendor)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold scope = %d: %s", cold.Code, cold.Body)
	}
	if got := funnelRaw(t, cold.Body.Bytes()); got != want {
		t.Errorf("cold scope funnel.Raw = %d, want %d (each run exactly once)", got, want)
	}
}

// TestLiveResetPool: a mutation the delta path cannot express drops
// every engine and rolls the generation, so rebuilt scopes serve fresh
// fingerprints.
func TestLiveResetPool(t *testing.T) {
	runs := testRuns(t)
	s := New(Config{Base: core.SliceSource(runs), Live: true})
	before := get(t, s, "/v1/analyses/funnel")
	if s.pool.len() != 1 {
		t.Fatalf("pool holds %d entries", s.pool.len())
	}
	n, err := s.ResetPool("file_modified")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reset dropped %d entries, want 1", n)
	}
	if s.pool.len() != 0 {
		t.Errorf("pool holds %d entries after reset", s.pool.len())
	}
	if s.Generation() != 1 {
		t.Errorf("generation = %d after reset, want 1", s.Generation())
	}
	after := get(t, s, "/v1/analyses/funnel")
	if after.Code != http.StatusOK {
		t.Fatalf("post-reset funnel = %d", after.Code)
	}
	if before.Header().Get("ETag") == after.Header().Get("ETag") {
		t.Error("ETag did not roll across the reset")
	}
}

// TestLiveConcurrentAppendReads is the race-correctness pin: readers
// hammer one scope while appends land, and every 200 must be
// internally consistent — one ETag never validates two different
// bodies (the ETag a response carries is never older, or newer, than
// the data it serves), and each reader's corpus counts never move
// backwards. Run under -race in CI.
func TestLiveConcurrentAppendReads(t *testing.T) {
	runs := testRuns(t)
	base := runs[:len(runs)-1]
	tmpl := *runs[len(runs)-1]
	s := New(Config{Base: core.SliceSource(base), Live: true})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}

	const readers, appends = 4, 24
	type obsPair struct {
		etag string
		body string
		raw  int
	}
	results := make([][]obsPair, readers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s, "/v1/analyses/funnel")
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: status %d", i, rec.Code)
					return
				}
				results[i] = append(results[i], obsPair{
					etag: rec.Header().Get("ETag"),
					body: rec.Body.String(),
					raw:  funnelRaw(t, rec.Body.Bytes()),
				})
			}
		}(i)
	}
	for n := 0; n < appends; n++ {
		r := tmpl
		r.ID = fmt.Sprintf("race-append-%d", n)
		if _, err := s.AppendRuns(&r); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	byETag := map[string]string{}
	for i, seq := range results {
		prev := -1
		for _, p := range seq {
			if p.raw < prev {
				t.Fatalf("reader %d saw the corpus shrink: %d after %d", i, p.raw, prev)
			}
			prev = p.raw
			if body, seen := byETag[p.etag]; seen && body != p.body {
				t.Fatalf("one ETag validated two bodies (etag %s)", p.etag)
			} else if !seen {
				byETag[p.etag] = p.body
			}
		}
	}
	if s.Generation() != appends {
		t.Errorf("generation = %d, want %d", s.Generation(), appends)
	}
}

// TestLiveClusteringHistoryIndependent: a served mini-batch partition
// is a function of (corpus, params) alone. Three live servers take the
// same 100-run append and serve the same query at the new generation —
// one had served it before the append, one never had, one had served
// it and then churned its pool and memos with other scopes and
// parameterizations. All three must serve the same body under the same
// ETag, and that body must be the one a server built over the whole
// corpus at once serves.
func TestLiveClusteringHistoryIndependent(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, extra := runs[:len(runs)-100], runs[len(runs)-100:]
	flood := func(s *Server) {
		for seed := 1; seed <= 10; seed++ {
			get(t, s, fmt.Sprintf("/v1/analyses/clusters?algo=minibatch&k=2&seed=%d", seed))
		}
		for _, f := range []string{"vendor=amd", "vendor=intel", "year=2015-2023"} {
			get(t, s, "/v1/analyses/clusters?algo=minibatch&k=2&filter="+f)
		}
	}
	for _, q := range []string{
		"/v1/analyses/clusters?algo=minibatch&k=3&batch=32",
		"/v1/analyses/clusters?algo=minibatch&k=6",
	} {
		serveAfterAppend := func(before func(*Server)) *httptest.ResponseRecorder {
			s := New(Config{Base: core.SliceSource(base), Live: true, PoolSize: 2})
			before(s)
			if _, err := s.AppendRuns(extra...); err != nil {
				t.Fatal(err)
			}
			rec := get(t, s, q)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", q, rec.Code, rec.Body)
			}
			return rec
		}
		ask := func(s *Server) { get(t, s, q) }
		ways := map[string]*httptest.ResponseRecorder{
			"asked before the append": serveAfterAppend(ask),
			"never asked before":      serveAfterAppend(func(*Server) {}),
			"asked, then churned":     serveAfterAppend(func(s *Server) { ask(s); flood(s) }),
		}
		fresh := get(t, New(Config{Base: core.SliceSource(runs)}), q)
		want, etag := fresh.Body.String(), ways["never asked before"].Header().Get("ETag")
		for way, rec := range ways {
			if rec.Body.String() != want {
				t.Errorf("%s, %s: body differs from a server built over the whole corpus", q, way)
			}
			if got := rec.Header().Get("ETag"); got != etag {
				t.Errorf("%s, %s: ETag %s, want %s", q, way, got, etag)
			}
		}
	}
}

// TestWatchHealthMetrics drives a live.Runner with injected ticks over
// a corpus directory that disappears and comes back: /metrics counts
// each failed poll once and measures the last-success age from the
// tick of the last poll that read the directory.
func TestWatchHealthMetrics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := core.WriteCorpus(dir, testRuns(t)[:3], 0); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Base: core.DirSource{Dir: dir}, Live: true})
	for _, series := range []string{"specserve_watch_poll_errors_total", "specserve_watch_last_success_age_seconds"} {
		if _, ok := scrape(t, s)[series]; ok {
			t.Fatalf("%s exposed before any poll was observed", series)
		}
	}
	w := live.NewWatcher(dir)
	if err := w.Baseline(); err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	polled := make(chan error)
	r := &live.Runner{W: w, Ticks: ticks, OnPoll: func(tick time.Time, err error) {
		s.ObserveWatchPoll(tick, err)
		polled <- err
	}}
	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()
	poll := func(tick time.Time, wantErr bool) {
		t.Helper()
		ticks <- tick
		if err := <-polled; (err != nil) != wantErr {
			t.Fatalf("poll error %v, want error: %v", err, wantErr)
		}
	}
	want := func(errs, minAge, maxAge float64) {
		t.Helper()
		mx := scrape(t, s)
		if got := mx["specserve_watch_poll_errors_total"]; got != errs {
			t.Errorf("specserve_watch_poll_errors_total = %v, want %v", got, errs)
		}
		age, ok := mx["specserve_watch_last_success_age_seconds"]
		if !ok || age < minAge || age > maxAge {
			t.Errorf("specserve_watch_last_success_age_seconds = %v (present %v), want in [%v, %v]",
				age, ok, minAge, maxAge)
		}
	}

	hourAgo := time.Now().Add(-time.Hour)
	poll(hourAgo, false)
	want(0, 3600, 3600+60)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	poll(time.Now(), true)
	poll(time.Now(), true)
	want(2, 3600, 3600+60) // failed polls leave the last success alone
	if err := core.WriteCorpus(dir, testRuns(t)[:3], 0); err != nil {
		t.Fatal(err)
	}
	poll(time.Now(), false)
	want(2, 0, 60)

	close(ticks)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// FuzzAppendRunBody fuzzes the POST /v1/runs body through ServeHTTP on
// a small live server with the root and a filter scope resident: no
// body panics the server, a 200 advances the generation by exactly one
// and rolls both ETags, and a 4xx leaves the generation and both ETags
// as they were. Each input gets a fresh server, so a failure reproduces
// from its input alone.
func FuzzAppendRunBody(f *testing.F) {
	base := core.SliceSource(testRuns(f))
	paths := []string{"/v1/analyses/funnel", "/v1/analyses/funnel?filter=vendor=amd"}
	etags := func(t *testing.T, s *Server) []string {
		t.Helper()
		var out []string
		for _, p := range paths {
			rec := get(t, s, p)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", p, rec.Code, rec.Body)
			}
			out = append(out, rec.Header().Get("ETag"))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Base: base, Live: true, TraceBufferSize: -1})
		before := etags(t, s)
		rec := postRun(t, s, body)
		switch {
		case rec.Code == http.StatusOK:
			var resp appendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q: %v", rec.Body, err)
			}
			if resp.Generation != 1 || s.Generation() != 1 {
				t.Fatalf("200 answered generation %d, server at %d; want 1 from 0", resp.Generation, s.Generation())
			}
			for i, etag := range etags(t, s) {
				if etag == before[i] {
					t.Errorf("%s: ETag %s did not roll across an accepted append", paths[i], etag)
				}
			}
		case rec.Code >= 400 && rec.Code < 500:
			if got := s.Generation(); got != 0 {
				t.Fatalf("%d moved the generation to %d", rec.Code, got)
			}
			for i, etag := range etags(t, s) {
				if etag != before[i] {
					t.Errorf("%s: ETag %s -> %s across a rejected append", paths[i], before[i], etag)
				}
			}
		default:
			t.Fatalf("POST answered %d: %s", rec.Code, rec.Body)
		}
	})
}
