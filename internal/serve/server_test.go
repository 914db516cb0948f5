package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/synth"
)

// countingSource counts how often the base corpus is streamed — the
// ground truth for the single-flight and warm-scope assertions.
type countingSource struct {
	inner   core.Source
	streams *atomic.Int64
}

func (c countingSource) Name() string { return "counting(" + c.inner.Name() + ")" }

func (c countingSource) Each(workers int, yield func(*model.Run) error) error {
	c.streams.Add(1)
	return c.inner.Each(workers, yield)
}

func testRuns(t testing.TB) []*model.Run {
	t.Helper()
	runs, err := synth.Generate(synth.Options{
		Seed: 7,
		Plan: []synth.YearPlan{
			{Year: 2009, Parsed: 12, AMDShare: 0.25, LinuxShare: 0.02, TwoSocketShare: 0.7},
			{Year: 2019, Parsed: 12, AMDShare: 0.30, LinuxShare: 0.30, TwoSocketShare: 0.7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// testServer builds a Server over the small corpus and returns the
// stream counter of its base source.
func testServer(t testing.TB, cfg Config) (*Server, *atomic.Int64) {
	t.Helper()
	var streams atomic.Int64
	if cfg.Base == nil {
		cfg.Base = countingSource{inner: core.SliceSource(testRuns(t)), streams: &streams}
	}
	return New(cfg), &streams
}

func get(t testing.TB, s *Server, path string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestListAnalyses(t *testing.T) {
	s, streams := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var entries []struct{ Name, Description string }
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 16 {
		t.Fatalf("listed %d analyses", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Description == "" {
			t.Errorf("analysis %q listed without a description", e.Name)
		}
		seen[e.Name] = true
	}
	if !seen["funnel"] || !seen["fig3"] || !seen["table1"] {
		t.Errorf("listing missing expected names: %v", seen)
	}
	// The listing is registry-only: no engine, no ingestion.
	if streams.Load() != 0 {
		t.Errorf("listing streamed the corpus %d times", streams.Load())
	}
	// And it is cacheable: the ETag round-trips to a 304.
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("listing has no ETag")
	}
	if rec := get(t, s, "/v1/analyses", "If-None-Match", etag); rec.Code != http.StatusNotModified {
		t.Errorf("repeat with ETag = %d, want 304", rec.Code)
	}
}

func TestAnalysisEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/funnel")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body struct {
		Name        string          `json:"name"`
		Description string          `json:"description"`
		Filter      string          `json:"filter"`
		Value       json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Name != "funnel" || body.Description == "" || len(body.Value) == 0 {
		t.Errorf("body = %+v", body)
	}
	if body.Filter != "" {
		t.Errorf("unfiltered request reported filter %q", body.Filter)
	}
}

func TestAnalysisScoped(t *testing.T) {
	runs := testRuns(t)
	wantAMD := 0
	for _, r := range runs {
		if r.CPUVendor == model.VendorAMD {
			wantAMD++
		}
	}
	if wantAMD == 0 || wantAMD == len(runs) {
		t.Fatalf("test corpus needs a vendor mix, got %d/%d AMD", wantAMD, len(runs))
	}
	s := New(Config{Base: core.SliceSource(runs)})
	rec := get(t, s, "/v1/analyses/funnel?filter=vendor%3DAMD")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		Filter string `json:"filter"`
		Value  struct {
			Raw int `json:"Raw"`
		} `json:"value"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Filter != "vendor=amd" {
		t.Errorf("filter echoed as %q, want canonical %q", body.Filter, "vendor=amd")
	}
	if body.Value.Raw != wantAMD {
		t.Errorf("scoped funnel saw %d raw runs, want %d", body.Value.Raw, wantAMD)
	}
}

func TestAnalysisUnknownName(t *testing.T) {
	s, streams := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	// The error is helpful (names the miss, lists what exists) and
	// cheap: no engine was built for a typo.
	for _, want := range []string{`"nope"`, "available", "fig3"} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("error %q missing %q", body.Error, want)
		}
	}
	if streams.Load() != 0 {
		t.Errorf("404 streamed the corpus %d times", streams.Load())
	}
}

// TestAnalysisParamScenarios is the parameterized-API acceptance test:
// one scope engine concurrently serves clusters with k=3 and k=5 —
// distinct memoized results, distinct ETags, both independently
// 304-revalidatable — while a spelled-out default shares the default
// request's validator, and the whole family shares one engine build
// and one ingestion.
func TestAnalysisParamScenarios(t *testing.T) {
	s, streams := testServer(t, Config{})

	type outcome struct {
		code int
		etag string
		k    int
	}
	fetch := func(path string, hdr ...string) outcome {
		rec := get(t, s, path, hdr...)
		var body struct {
			Params string `json:"params"`
			Value  struct {
				K int `json:"k"`
			} `json:"value"`
		}
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return outcome{code: rec.Code, etag: rec.Header().Get("ETag"), k: body.Value.K}
	}

	// Concurrent cold requests for both parameterizations.
	var wg sync.WaitGroup
	outs := make([]outcome, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 3 + 2*(i%2) // alternate k=3 / k=5
			outs[i] = fetch(fmt.Sprintf("/v1/analyses/clusters?k=%d", k))
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		wantK := 3 + 2*(i%2)
		if out.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, out.code)
		}
		if out.k != wantK {
			t.Errorf("request %d: clustered into k=%d, want %d", i, out.k, wantK)
		}
		if out.etag == "" || out.etag != outs[i%2].etag {
			t.Errorf("request %d: ETag %q differs within the k=%d family", i, out.etag, wantK)
		}
	}
	if outs[0].etag == outs[1].etag {
		t.Error("k=3 and k=5 share an ETag — 304s would serve the wrong partition")
	}
	if got := s.gauges().EngineBuilds; got != 1 {
		t.Errorf("param scenarios built %d engines, want 1 shared scope engine", got)
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("corpus streamed %d times across scenarios, want 1", got)
	}

	// Each parameterization revalidates independently.
	for i := 0; i < 2; i++ {
		k := 3 + 2*i
		path := fmt.Sprintf("/v1/analyses/clusters?k=%d", k)
		rec := get(t, s, path, "If-None-Match", outs[i].etag)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Errorf("k=%d revalidation: status %d, %d-byte body, want bare 304",
				k, rec.Code, rec.Body.Len())
		}
		// The other parameterization's validator must not match.
		rec = get(t, s, path, "If-None-Match", outs[1-i].etag)
		if rec.Code != http.StatusOK {
			t.Errorf("k=%d with the other family's ETag: status %d, want 200", k, rec.Code)
		}
	}

	// A default request and the defaults spelled out share a validator;
	// a param request echoes its canonical (non-default) params.
	def := fetch("/v1/analyses/clusters")
	spelled := fetch("/v1/analyses/clusters?seed=14&kmin=2&kmax=8&algo=kmeans")
	if def.code != http.StatusOK || spelled.code != http.StatusOK {
		t.Fatalf("default/spelled status %d/%d", def.code, spelled.code)
	}
	if def.etag != spelled.etag {
		t.Errorf("spelled-out defaults got ETag %q, want the default %q", spelled.etag, def.etag)
	}
	var echoed struct {
		Params string `json:"params"`
	}
	rec := get(t, s, "/v1/analyses/clusters?k=3")
	if err := json.Unmarshal(rec.Body.Bytes(), &echoed); err != nil {
		t.Fatal(err)
	}
	if echoed.Params != "k=3" {
		t.Errorf("params echoed as %q, want %q", echoed.Params, "k=3")
	}
	if rec := get(t, s, "/v1/analyses/clusters"); strings.Contains(rec.Body.String(), `"params"`) {
		t.Error("default response carries a params field (breaks byte-compat)")
	}
}

// TestAnalysisParamErrors: unknown keys and invalid values are 400s
// carrying the declared schema — and they never build an engine or
// touch the corpus. Compute-time combination errors (hac without a
// stopping rule, k beyond the corpus) are also 400s, not 500s.
func TestAnalysisParamErrors(t *testing.T) {
	s, streams := testServer(t, Config{})
	badQueries := []string{
		"bogus=1",             // unknown key
		"k=-1",                // fails the k >= 0 validation
		"k=abc",               // unparsable int
		"algo=ward",           // outside the enum
		"features=score,nope", // unknown feature name
		"kmin=7&kmax=3",       // inverted sweep range
		"algo=hac&cut=NaN",    // non-finite floats defeat range checks
		"algo=hac&cut=Inf",
	}
	for _, q := range badQueries {
		rec := get(t, s, "/v1/analyses/clusters?"+q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("?%s: status = %d, want 400 (body %s)", q, rec.Code, rec.Body)
			continue
		}
		if etag := rec.Header().Get("ETag"); etag != "" {
			t.Errorf("?%s: 400 carries ETag %q", q, etag)
		}
		var body struct {
			Error  string `json:"error"`
			Schema []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"schema"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("?%s: %v", q, err)
		}
		if body.Error == "" {
			t.Errorf("?%s: empty error", q)
		}
		names := map[string]string{}
		for _, p := range body.Schema {
			names[p.Name] = p.Kind
		}
		if names["k"] != "int" || names["algo"] != "enum" || names["features"] != "string-list" {
			t.Errorf("?%s: schema echo incomplete: %v", q, names)
		}
	}
	// Resolve-level 400s must not build an engine or ingest anything.
	if got := streams.Load(); got != 0 {
		// kmin/kmax inversion is caught at compute time and ingests once;
		// everything before it is resolve-level. Allow exactly that one.
		if got != 1 {
			t.Errorf("param errors streamed the corpus %d times", got)
		}
	}
	// Params on a parameterless analysis are unknown keys.
	if rec := get(t, s, "/v1/analyses/funnel?k=3"); rec.Code != http.StatusBadRequest {
		t.Errorf("funnel?k=3: status = %d, want 400", rec.Code)
	}
	// hac without k or cut: a compute-time combination error, still 400.
	if rec := get(t, s, "/v1/analyses/clusters?algo=hac"); rec.Code != http.StatusBadRequest {
		t.Errorf("algo=hac without k/cut: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	// And a valid hac request on the same (healthy, resident) scope
	// engine still serves — the 400 must not have poisoned the pool.
	if rec := get(t, s, "/v1/analyses/clusters?algo=hac&k=3"); rec.Code != http.StatusOK {
		t.Errorf("algo=hac&k=3 after a 400: status = %d (body %s)", rec.Code, rec.Body)
	}
}

// TestListSchemas: /v1/analyses describes each analysis's declared
// parameters, and parameterless analyses stay schema-free.
func TestListSchemas(t *testing.T) {
	s, _ := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var entries []struct {
		Name   string `json:"name"`
		Params []struct {
			Name    string   `json:"name"`
			Kind    string   `json:"kind"`
			Default string   `json:"default"`
			Enum    []string `json:"enum"`
		} `json:"params"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, e := range entries {
		byName[e.Name] = i
	}
	clusters := entries[byName["clusters"]]
	if len(clusters.Params) < 6 {
		t.Fatalf("clusters schema lists %d params: %+v", len(clusters.Params), clusters.Params)
	}
	seen := map[string]bool{}
	for _, p := range clusters.Params {
		seen[p.Name] = true
		if p.Name == "algo" && (p.Kind != "enum" || len(p.Enum) != 3 || p.Default != "kmeans") {
			t.Errorf("algo param listed as %+v", p)
		}
		if p.Name == "seed" && p.Default != "14" {
			t.Errorf("seed default listed as %q", p.Default)
		}
	}
	for _, want := range []string{"k", "algo", "linkage", "cut", "seed", "features", "kmin", "kmax"} {
		if !seen[want] {
			t.Errorf("clusters schema missing %q", want)
		}
	}
	if len(entries[byName["funnel"]].Params) != 0 {
		t.Errorf("funnel lists params: %+v", entries[byName["funnel"]].Params)
	}
}

func TestAnalysisBadFilter(t *testing.T) {
	s, _ := testServer(t, Config{})
	for _, filter := range []string{"color=red", "year=abc", "vendor"} {
		rec := get(t, s, "/v1/analyses/funnel?filter="+filter)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("filter %q: status = %d, want 400", filter, rec.Code)
		}
	}
}

func TestETagRoundTrip(t *testing.T) {
	s, _ := testServer(t, Config{})
	first := get(t, s, "/v1/analyses/funnel")
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", first.Code, first.Body)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}
	if cc := first.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q", cc)
	}

	second := get(t, s, "/v1/analyses/funnel", "If-None-Match", etag)
	if second.Code != http.StatusNotModified {
		t.Fatalf("repeat with ETag: status = %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", second.Body.Len())
	}
	if got := second.Header().Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	if s.gauges().NotModified != 1 {
		t.Errorf("not_modified = %d, want 1", s.gauges().NotModified)
	}

	// The validator is specific: a different analysis and a different
	// scope both get different ETags (a shared one would serve wrong
	// 304s).
	other := get(t, s, "/v1/analyses/fig1")
	if other.Header().Get("ETag") == etag {
		t.Error("fig1 shares funnel's ETag")
	}
	scoped := get(t, s, "/v1/analyses/funnel?filter=vendor%3DAMD")
	if scoped.Header().Get("ETag") == etag {
		t.Error("scoped funnel shares the unscoped ETag")
	}
	// A stale validator still gets a fresh 200.
	if rec := get(t, s, "/v1/analyses/funnel", "If-None-Match", `"deadbeef"`); rec.Code != http.StatusOK {
		t.Errorf("stale ETag: status = %d, want 200", rec.Code)
	}
}

// TestSingleFlight: N concurrent requests for the same cold scope build
// exactly one scope engine — plus the root engine it is a view of —
// and stream the corpus exactly once.
func TestSingleFlight(t *testing.T) {
	s, streams := testServer(t, Config{})
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	etags := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, s, "/v1/analyses/funnel?filter=vendor%3DAMD")
			codes[i] = rec.Code
			etags[i] = rec.Header().Get("ETag")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if etags[i] != etags[0] {
			t.Errorf("request %d: ETag %q differs from %q", i, etags[i], etags[0])
		}
	}
	if got := s.gauges().EngineBuilds; got != 2 {
		t.Errorf("engine_builds = %d, want 2 (single-flight scope + its root)", got)
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("corpus streamed %d times under concurrency, want 1", got)
	}
}

// TestWarmScopeServedFromMemo: once a scope is resident, repeat
// requests do no work — no new engine, no new ingestion, no compute,
// no render — and serve the cold response's bytes and ETag.
func TestWarmScopeServedFromMemo(t *testing.T) {
	s, streams := testServer(t, Config{})

	cold := get(t, s, "/v1/analyses/funnel")
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d", cold.Code)
	}
	if streams.Load() != 1 {
		t.Fatalf("cold request streamed %d times", streams.Load())
	}
	computes, renders := s.metrics.Computes(), stageCount(t, s, obs.StageSerialize)
	if computes != 1 || renders != 1 {
		t.Fatalf("cold request: %d computes, %d renders, want 1 and 1", computes, renders)
	}

	for i := 0; i < 5; i++ {
		rec := get(t, s, "/v1/analyses/funnel")
		if rec.Code != http.StatusOK {
			t.Fatalf("warm: status %d", rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("warm request %d served different bytes than the cold one", i)
		}
		if rec.Header().Get("ETag") != cold.Header().Get("ETag") {
			t.Fatalf("warm request %d: ETag %q, cold %q", i, rec.Header().Get("ETag"), cold.Header().Get("ETag"))
		}
	}
	if streams.Load() != 1 {
		t.Errorf("warm requests re-streamed the corpus (%d streams)", streams.Load())
	}
	if got := s.gauges().EngineBuilds; got != 1 {
		t.Errorf("warm requests rebuilt the engine (%d builds)", got)
	}
	if got := s.metrics.Computes() - computes; got != 0 {
		t.Errorf("warm requests computed %d times, want 0", got)
	}
	if got := stageCount(t, s, obs.StageSerialize) - renders; got != 0 {
		t.Errorf("warm requests rendered %d times, want 0", got)
	}
}

// TestPoolEviction: past the LRU bound the least recently served scope
// is evicted and a later request for it rebuilds. The first scope also
// builds the root engine every scope is a view of; the root is the
// pool's origin, not a resident scope, so it takes no LRU slot.
func TestPoolEviction(t *testing.T) {
	s, _ := testServer(t, Config{PoolSize: 2})
	hit := func(filter string) {
		t.Helper()
		rec := get(t, s, "/v1/analyses/funnel?filter="+filter)
		if rec.Code != http.StatusOK {
			t.Fatalf("filter %q: status %d: %s", filter, rec.Code, rec.Body)
		}
	}
	hit("vendor%3DAMD")   // pool: [amd]
	hit("vendor%3DIntel") // pool: [intel amd]
	hit("os%3DLinux")     // pool: [linux intel], amd evicted
	st := s.gauges()
	if st.PoolEngines != 2 {
		t.Errorf("pool_engines = %d, want 2", st.PoolEngines)
	}
	if st.EngineBuilds != 4 || st.PoolEvictions != 1 {
		t.Errorf("builds/evictions = %d/%d, want 4/1", st.EngineBuilds, st.PoolEvictions)
	}
	hit("os%3DLinux") // still resident: no rebuild
	if got := s.gauges().EngineBuilds; got != 4 {
		t.Errorf("resident scope rebuilt: builds = %d", got)
	}
	hit("vendor%3DAMD") // evicted: rebuilt from the same root, evicting intel
	st = s.gauges()
	if st.EngineBuilds != 5 || st.PoolEvictions != 2 {
		t.Errorf("after re-request: builds/evictions = %d/%d, want 5/2",
			st.EngineBuilds, st.PoolEvictions)
	}
}

// TestScopeCanonicalization: different spellings of the same filter
// share one pool engine (built beside the root engine it views).
func TestScopeCanonicalization(t *testing.T) {
	s, streams := testServer(t, Config{})
	for _, spelling := range []string{
		"vendor%3DAMD%2Csince%3D2015",
		"since%3D2015%2Cvendor%3Damd",
		"%20vendor%3DAMD%20%2C%20since%3D2015%20",
	} {
		rec := get(t, s, "/v1/analyses/funnel?filter="+spelling)
		if rec.Code != http.StatusOK {
			t.Fatalf("spelling %q: status %d: %s", spelling, rec.Code, rec.Body)
		}
	}
	if got := s.gauges().EngineBuilds; got != 2 {
		t.Errorf("equal scopes built %d engines, want 2 (one scope + its root)", got)
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("equal scopes streamed %d times, want 1", got)
	}
}

func TestReportEndpoint(t *testing.T) {
	// The full report needs enough yearly bins for the trend tests, so
	// it gets a wider corpus than the two-year default.
	runs, err := synth.Generate(synth.Options{
		Seed: 7,
		Plan: []synth.YearPlan{
			{Year: 2008, Parsed: 10, AMDShare: 0.25, LinuxShare: 0.02, TwoSocketShare: 0.7},
			{Year: 2012, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.05, TwoSocketShare: 0.7},
			{Year: 2016, Parsed: 10, AMDShare: 0.10, LinuxShare: 0.10, TwoSocketShare: 0.7},
			{Year: 2018, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.20, TwoSocketShare: 0.7},
			{Year: 2020, Parsed: 10, AMDShare: 0.30, LinuxShare: 0.30, TwoSocketShare: 0.7},
			{Year: 2023, Parsed: 10, AMDShare: 0.35, LinuxShare: 0.40, TwoSocketShare: 0.7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Base: core.SliceSource(runs)})
	rec := get(t, s, "/v1/report")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "Filter funnel") {
		t.Errorf("report body missing the funnel section")
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("report has no ETag")
	}
	if rec := get(t, s, "/v1/report", "If-None-Match", etag); rec.Code != http.StatusNotModified {
		t.Errorf("repeat report = %d, want 304", rec.Code)
	}
}

// TestStatsEndpoint: the serving counters are read off /metrics, the
// only metrics surface; the former JSON copy at /v1/stats is gone.
func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	get(t, s, "/healthz")
	get(t, s, "/v1/analyses/funnel")
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	mx := parseExposition(t, rec.Body.String())
	// The metrics request itself is not yet counted when the page is
	// rendered, hence 2, not 3.
	if got := mx["specserve_requests_total"]; got != 2 {
		t.Errorf("requests = %v, want 2", got)
	}
	if b, e := mx["specserve_engine_builds_total"], mx["specserve_pool_engines"]; b != 1 || e != 1 {
		t.Errorf("builds/engines = %v/%v, want 1/1", b, e)
	}
	if got := mx["specserve_registered_analyses"]; got < 16 {
		t.Errorf("analyses = %v", got)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("metrics Cache-Control = %q", cc)
	}
	if rec := get(t, s, "/v1/stats"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /v1/stats = %d, want 404", rec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/analyses/funnel", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

func TestPoolBuildErrorNotCached(t *testing.T) {
	s := New(Config{Base: core.DirSource{Dir: "/nonexistent-corpus-dir"}})
	if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("missing corpus: status = %d, want 500", rec.Code)
	}
	// The failed build must not be pinned in the pool.
	if got := s.gauges().PoolEngines; got != 0 {
		t.Errorf("failed scope stayed resident: pool_engines = %d", got)
	}
}

// flakySource fails its first `fails` streams, then delegates — a
// corpus directory mid-sync, as seen by the engine.
type flakySource struct {
	inner core.Source
	fails *atomic.Int64
}

func (f flakySource) Name() string { return "flaky(" + f.inner.Name() + ")" }

func (f flakySource) Each(workers int, yield func(*model.Run) error) error {
	if f.fails.Add(-1) >= 0 {
		return fmt.Errorf("transient corpus failure")
	}
	return f.inner.Each(workers, yield)
}

// TestIngestionFailureRetried: a scope whose ingestion fails is dropped
// from the pool — the 500 carries no ETag (nothing to revalidate to),
// and the next request rebuilds and succeeds instead of replaying the
// engine's memoized error forever.
func TestIngestionFailureRetried(t *testing.T) {
	var fails atomic.Int64
	fails.Store(1)
	s := New(Config{Base: flakySource{inner: core.SliceSource(testRuns(t)), fails: &fails}})

	first := get(t, s, "/v1/analyses/funnel")
	if first.Code != http.StatusInternalServerError {
		t.Fatalf("first request = %d, want 500", first.Code)
	}
	if etag := first.Header().Get("ETag"); etag != "" {
		t.Errorf("error response carries ETag %q — a later If-None-Match would 304 a broken resource", etag)
	}
	if got := s.gauges().PoolEngines; got != 0 {
		t.Errorf("broken scope stayed resident: pool_engines = %d", got)
	}

	second := get(t, s, "/v1/analyses/funnel")
	if second.Code != http.StatusOK {
		t.Fatalf("after the corpus recovered: status = %d, want 200 (body %s)",
			second.Code, second.Body)
	}
	if second.Header().Get("ETag") == "" {
		t.Error("recovered response has no ETag")
	}
}

// The gate probe blocks inside an analysis until released, so the test
// can hold a request in flight deterministically. The analysis is
// registered once per process (the registry rejects duplicates) but
// reads its channels through a mutex, so repeated runs (-count) get
// fresh ones.
var (
	gateProbeOnce    sync.Once
	gateProbeMu      sync.Mutex
	gateProbeEnter   chan struct{}
	gateProbeRelease chan struct{}
)

func registerGateProbe() (enter, release chan struct{}) {
	gateProbeOnce.Do(func() {
		analysis.Register("serve_gate_probe", "blocking probe (test only)",
			func(ds *analysis.Dataset) (any, error) {
				gateProbeMu.Lock()
				enter, release := gateProbeEnter, gateProbeRelease
				gateProbeMu.Unlock()
				enter <- struct{}{}
				<-release
				return "ok", nil
			})
	})
	enter = make(chan struct{}, 1)
	release = make(chan struct{})
	gateProbeMu.Lock()
	gateProbeEnter, gateProbeRelease = enter, release
	gateProbeMu.Unlock()
	return enter, release
}

// TestConcurrencyGate: with MaxInFlight=1 and one request parked inside
// a handler, a second request whose client has given up is answered 503
// instead of queueing forever.
func TestConcurrencyGate(t *testing.T) {
	gateEnter, gateRelease := registerGateProbe()
	s, _ := testServer(t, Config{MaxInFlight: 1})

	done := make(chan int, 1)
	go func() {
		rec := get(t, s, "/v1/analyses/serve_gate_probe")
		done <- rec.Code
	}()
	<-gateEnter // the first request is now inside the gate

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("gated request = %d, want 503", rec.Code)
	}
	if got := s.gauges().RejectedBusy; got != 1 {
		t.Errorf("rejected_busy = %d, want 1", got)
	}

	close(gateRelease)
	if code := <-done; code != http.StatusOK {
		t.Errorf("parked request finished with %d", code)
	}
}

func TestWarm(t *testing.T) {
	s, streams := testServer(t, Config{})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if streams.Load() != 1 {
		t.Fatalf("Warm streamed %d times", streams.Load())
	}
	if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if streams.Load() != 1 {
		t.Errorf("first request after Warm re-ingested (streams = %d)", streams.Load())
	}
}

func TestRequestLogging(t *testing.T) {
	var sink syncBuf
	var streams atomic.Int64
	s := New(Config{
		Base:   countingSource{inner: core.SliceSource(testRuns(t)), streams: &streams},
		Events: evlog.New(&sink, evlog.Options{}),
	})
	get(t, s, "/v1/analyses/funnel?filter=vendor%3DAMD")
	lines := linesWith(sink.lines(), "event=request ")
	if len(lines) != 1 {
		t.Fatalf("logged %d request lines, want 1", len(lines))
	}
	for _, want := range []string{"method=GET", `path="/v1/analyses/funnel?filter=vendor%3DAMD"`, "status=200"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line %q missing %q", lines[0], want)
		}
	}
}

// TestClusterAnalysisServed: the clustering subsystem is an ordinary
// registry analysis as far as the server is concerned, so it inherits
// the scoped engine pool and ETag/304 revalidation for free. This
// pins that inheritance: a cold request computes and tags, the
// revalidation transfers nothing, and the scope engine is reused.
func TestClusterAnalysisServed(t *testing.T) {
	s, streams := testServer(t, Config{})
	rec := get(t, s, "/v1/analyses/clusters")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		Name  string `json:"name"`
		Value struct {
			Algo        string  `json:"algo"`
			K           int     `json:"k"`
			Silhouette  float64 `json:"silhouette"`
			Sizes       []int   `json:"sizes"`
			Assignments []struct {
				ID      string `json:"id"`
				Cluster int    `json:"cluster"`
			} `json:"assignments"`
		} `json:"value"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Name != "clusters" || body.Value.Algo != "kmeans++" {
		t.Errorf("body name/algo = %s/%s", body.Name, body.Value.Algo)
	}
	if body.Value.K < 2 {
		t.Errorf("k = %d, want >= 2 on the test corpus", body.Value.K)
	}
	total := 0
	for _, n := range body.Value.Sizes {
		total += n
	}
	if total != len(body.Value.Assignments) || total == 0 {
		t.Errorf("sizes sum %d, %d assignments", total, len(body.Value.Assignments))
	}
	// Revalidation: the ETag round-trips to a bodyless 304 without
	// re-ingesting the corpus.
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("clusters response has no ETag")
	}
	streamsBefore := streams.Load()
	second := get(t, s, "/v1/analyses/clusters", "If-None-Match", etag)
	if second.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", second.Body.Len())
	}
	if streams.Load() != streamsBefore {
		t.Errorf("revalidation re-ingested the corpus")
	}
	// And a filtered scope clusters its slice through the same pool.
	if rec := get(t, s, "/v1/analyses/clusters?filter=vendor%3DAMD"); rec.Code != http.StatusOK {
		t.Errorf("filtered clusters status = %d: %s", rec.Code, rec.Body)
	}
}
