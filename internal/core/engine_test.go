package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	_ "repro/internal/cluster" // the clustering analyses the report renders
	"repro/internal/model"
	"repro/internal/synth"
)

// smallEngine builds an engine over the small test corpus.
func smallEngine(t *testing.T) *Engine {
	t.Helper()
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	return New(WithSource(SliceSource(runs)))
}

func TestEngineRunSelectsByName(t *testing.T) {
	eng := smallEngine(t)
	results, err := eng.Run("fig3", "funnel")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Name != "fig3" || results[1].Name != "funnel" {
		t.Fatalf("results = %+v, want fig3 then funnel", results)
	}
	if _, ok := results[0].Value.(analysis.TrendFigure); !ok {
		t.Errorf("fig3 value is %T", results[0].Value)
	}
	f, ok := results[1].Value.(analysis.Funnel)
	if !ok {
		t.Fatalf("funnel value is %T", results[1].Value)
	}
	if f.Raw == 0 || f.Raw != f.Parsed+countStage(f.ParseStage) {
		t.Errorf("funnel inconsistent: raw %d, parsed %d + %d rejects",
			f.Raw, f.Parsed, countStage(f.ParseStage))
	}
}

func countStage(rcs []analysis.ReasonCount) int {
	n := 0
	for _, rc := range rcs {
		n += rc.Count
	}
	return n
}

// multiYearEngine builds an engine over a small corpus spanning enough
// yearly bins for the trend and changepoint analyses, which
// smallOptions does not.
func multiYearEngine(t *testing.T) *Engine {
	t.Helper()
	opt := smallOptions()
	opt.Plan = []synth.YearPlan{
		{Year: 2008, Parsed: 10, AMDShare: 0.25, LinuxShare: 0.02, TwoSocketShare: 0.7},
		{Year: 2012, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.05, TwoSocketShare: 0.7},
		{Year: 2016, Parsed: 10, AMDShare: 0.10, LinuxShare: 0.10, TwoSocketShare: 0.7},
		{Year: 2018, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.20, TwoSocketShare: 0.7},
		{Year: 2020, Parsed: 10, AMDShare: 0.30, LinuxShare: 0.30, TwoSocketShare: 0.7},
		{Year: 2023, Parsed: 10, AMDShare: 0.35, LinuxShare: 0.40, TwoSocketShare: 0.7},
	}
	runs, err := synth.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	return New(WithSource(SliceSource(runs)))
}

func TestEngineRunAllNames(t *testing.T) {
	results, err := multiYearEngine(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 16 {
		t.Fatalf("only %d analyses registered", len(results))
	}
	seen := map[string]bool{}
	for _, res := range results {
		seen[res.Name] = true
	}
	for _, want := range []string{"funnel", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "submissions", "growth", "top100", "idlehistory", "features",
		"trends", "ep", "confound", "changepoint", "table1"} {
		if !seen[want] {
			t.Errorf("Run() missing %q", want)
		}
	}
}

func TestEngineUnknownAnalysis(t *testing.T) {
	eng := smallEngine(t)
	_, err := eng.Run("fig3", "nope")
	if err == nil {
		t.Fatal("unknown name should error")
	}
	var unknown *UnknownAnalysisError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %T %v, want *UnknownAnalysisError", err, err)
	}
	if unknown.Name != "nope" {
		t.Errorf("Name = %q", unknown.Name)
	}
	// The message is helpful: it names the miss and lists what exists.
	for _, want := range []string{`"nope"`, "available", "fig3", "funnel"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// The memoization probe registers once per process (the registry is
// global and rejects duplicates, so re-registering per test run — e.g.
// under -count=2 — would panic) and counts its invocations.
var (
	memoProbeOnce  sync.Once
	memoProbeCalls atomic.Int64
)

func registerMemoProbe() {
	memoProbeOnce.Do(func() {
		analysis.Register("test_memo_probe", "memoization probe (test only)",
			func(ds *analysis.Dataset) (any, error) {
				memoProbeCalls.Add(1)
				return len(ds.Raw), nil
			})
	})
}

// TestEngineMemoization: an analysis runs at most once per engine, and
// different engines do not share results.
func TestEngineMemoization(t *testing.T) {
	registerMemoProbe()
	before := memoProbeCalls.Load()
	eng := smallEngine(t)
	for i := 0; i < 5; i++ {
		if _, err := eng.Analysis("test_memo_probe"); err != nil {
			t.Fatal(err)
		}
	}
	if got := memoProbeCalls.Load() - before; got != 1 {
		t.Errorf("analysis ran %d times on one engine, want 1", got)
	}
	if _, err := smallEngine(t).Analysis("test_memo_probe"); err != nil {
		t.Fatal(err)
	}
	if got := memoProbeCalls.Load() - before; got != 2 {
		t.Errorf("fresh engine should recompute: %d calls, want 2", got)
	}
}

func TestEngineDatasetComputedOnce(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var streams atomic.Int64
	eng := New(WithSource(countingSource{inner: SliceSource(runs), streams: &streams}))
	if _, err := eng.Run("fig2", "fig3", "funnel", "ep"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Dataset(); err != nil {
		t.Fatal(err)
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("source streamed %d times, want 1", got)
	}
}

// countingSource counts how often the corpus is streamed.
type countingSource struct {
	inner   Source
	streams *atomic.Int64
}

func (c countingSource) Name() string { return "counting(" + c.inner.Name() + ")" }

func (c countingSource) Each(workers int, yield func(*model.Run) error) error {
	c.streams.Add(1)
	return c.inner.Each(workers, yield)
}

// TestEngineConcurrentHammer drives one engine from many goroutines
// mixing Analysis, Run, and Dataset calls (run under -race in CI) and
// asserts the exactly-once contract holds anyway: one corpus stream,
// one probe computation.
func TestEngineConcurrentHammer(t *testing.T) {
	registerMemoProbe()
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var streams atomic.Int64
	eng := New(WithSource(countingSource{inner: SliceSource(runs), streams: &streams}))
	before := memoProbeCalls.Load()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*3)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if _, err := eng.Analysis("test_memo_probe"); err != nil {
				errs <- err
			}
			results, err := eng.Run("fig3", "funnel", "test_memo_probe")
			if err != nil {
				errs <- err
				return
			}
			if len(results) != 3 || results[0].Name != "fig3" ||
				results[1].Name != "funnel" || results[2].Name != "test_memo_probe" {
				errs <- fmt.Errorf("goroutine %d: results out of request order: %+v", g, results)
			}
			if _, err := eng.Dataset(); err != nil {
				errs <- err
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := memoProbeCalls.Load() - before; got != 1 {
		t.Errorf("probe analysis computed %d times under concurrency, want exactly 1", got)
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("source streamed %d times under concurrency, want exactly 1", got)
	}
}

// The param probe registers once per process and counts invocations
// per canonical parameterization, so tests can assert which
// parameterizations actually computed.
var (
	paramProbeOnce  sync.Once
	paramProbeCalls sync.Map // canonical string → *atomic.Int64
)

func registerParamProbe() {
	paramProbeOnce.Do(func() {
		analysis.RegisterParams("test_param_probe", "param memoization probe (test only)",
			analysis.Schema{{Name: "k", Kind: analysis.KindInt, Default: 1}},
			func(ds *analysis.Dataset, p analysis.Params) (any, error) {
				c, _ := paramProbeCalls.LoadOrStore(p.Canonical(), new(atomic.Int64))
				c.(*atomic.Int64).Add(1)
				return p.Int("k") * len(ds.Raw), nil
			})
	})
}

func paramProbeCount(canonical string) int64 {
	c, ok := paramProbeCalls.Load(canonical)
	if !ok {
		return 0
	}
	return c.(*atomic.Int64).Load()
}

func paramProbeParams(t *testing.T, raw map[string]string) analysis.Params {
	t.Helper()
	reg, ok := analysis.Lookup("test_param_probe")
	if !ok {
		t.Fatal("probe not registered")
	}
	p, err := reg.Params.Resolve(raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEngineParamMemoization: one engine holds an independent memo per
// (name, canonical params) — k=3 and k=5 each compute exactly once and
// return distinct values — while spelled-out defaults share the
// default entry.
func TestEngineParamMemoization(t *testing.T) {
	registerParamProbe()
	eng := smallEngine(t)
	k3 := paramProbeParams(t, map[string]string{"k": "3"})
	k5 := paramProbeParams(t, map[string]string{"k": "5"})
	before3, before5 := paramProbeCount("k=3"), paramProbeCount("k=5")
	beforeDef := paramProbeCount("")

	var got3, got5 any
	for i := 0; i < 3; i++ {
		var err error
		if got3, err = eng.AnalysisRequest(Request{Name: "test_param_probe", Params: k3}); err != nil {
			t.Fatal(err)
		}
		if got5, err = eng.AnalysisRequest(Request{Name: "test_param_probe", Params: k5}); err != nil {
			t.Fatal(err)
		}
	}
	if got3 == got5 {
		t.Errorf("k=3 and k=5 returned the same value %v", got3)
	}
	if d := paramProbeCount("k=3") - before3; d != 1 {
		t.Errorf("k=3 computed %d times, want 1", d)
	}
	if d := paramProbeCount("k=5") - before5; d != 1 {
		t.Errorf("k=5 computed %d times, want 1", d)
	}

	// A default-params request — by name, as a zero-params request, and
	// with the default spelled out — shares one memo entry.
	if _, err := eng.Analysis("test_param_probe"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AnalysisRequest(Request{Name: "test_param_probe"}); err != nil {
		t.Fatal(err)
	}
	spelled := paramProbeParams(t, map[string]string{"k": "1"})
	if spelled.Canonical() != "" {
		t.Fatalf("spelled-out default canonicalizes to %q", spelled.Canonical())
	}
	if _, err := eng.AnalysisRequest(Request{Name: "test_param_probe", Params: spelled}); err != nil {
		t.Fatal(err)
	}
	if d := paramProbeCount("") - beforeDef; d != 1 {
		t.Errorf("default parameterization computed %d times, want 1", d)
	}
}

// TestEngineParamMemoBound: parameter values are request inputs, so
// the per-engine memo must not grow without bound when a client scans
// them — beyond the cap the oldest parameterized entry is evicted
// (and recomputes on a repeat request), while default entries stay.
func TestEngineParamMemoBound(t *testing.T) {
	registerParamProbe()
	eng := smallEngine(t)
	if _, err := eng.Analysis("test_param_probe"); err != nil { // default entry
		t.Fatal(err)
	}
	for i := 0; i < paramMemoLimit+10; i++ {
		p := paramProbeParams(t, map[string]string{"k": fmt.Sprint(i + 2)})
		if _, err := eng.AnalysisRequest(Request{Name: "test_param_probe", Params: p}); err != nil {
			t.Fatal(err)
		}
	}
	eng.mu.Lock()
	memos, order := len(eng.memos), len(eng.paramOrder)
	_, defaultKept := eng.memos[memoKey{name: "test_param_probe"}]
	eng.mu.Unlock()
	if order != paramMemoLimit {
		t.Errorf("paramOrder holds %d keys, want the cap %d", order, paramMemoLimit)
	}
	if memos > paramMemoLimit+1 {
		t.Errorf("memo map holds %d entries, want <= cap+default = %d",
			memos, paramMemoLimit+1)
	}
	if !defaultKept {
		t.Error("default-parameter entry was evicted")
	}
	// An evicted parameterization recomputes instead of erroring.
	before := paramProbeCount("k=2")
	p := paramProbeParams(t, map[string]string{"k": "2"})
	if _, err := eng.AnalysisRequest(Request{Name: "test_param_probe", Params: p}); err != nil {
		t.Fatal(err)
	}
	if d := paramProbeCount("k=2") - before; d != 1 {
		t.Errorf("evicted entry recomputed %d times on re-request, want 1", d)
	}
}

// TestEngineRunRequests: request-order results with per-request params,
// the canonical string carried on each Result, and default requests
// indistinguishable from the by-name path.
func TestEngineRunRequests(t *testing.T) {
	registerParamProbe()
	eng := smallEngine(t)
	k3 := paramProbeParams(t, map[string]string{"k": "3"})
	results, err := eng.RunRequests(
		Request{Name: "funnel"},
		Request{Name: "test_param_probe", Params: k3},
		Request{Name: "test_param_probe"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].Name != "funnel" || results[1].Name != "test_param_probe" {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Params != "" || results[1].Params != "k=3" || results[2].Params != "" {
		t.Errorf("params carried as %q/%q/%q, want \"\"/\"k=3\"/\"\"",
			results[0].Params, results[1].Params, results[2].Params)
	}
	if results[1].Value == results[2].Value {
		t.Errorf("k=3 and default returned the same value %v", results[1].Value)
	}
	// The JSON encoding omits params for default requests (back-compat)
	// and carries them for parameterized ones.
	var buf bytes.Buffer
	if err := eng.WriteJSONRequests(&buf,
		Request{Name: "test_param_probe", Params: k3},
		Request{Name: "funnel"}); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if string(decoded[0]["params"]) != `"k=3"` {
		t.Errorf("parameterized JSON params = %s", decoded[0]["params"])
	}
	if _, ok := decoded[1]["params"]; ok {
		t.Error("default request JSON carries a params field")
	}
}

// TestEngineRunParallelDeterministicError: with several unknown names in
// one parallel batch, the lowest-index failure wins every time.
func TestEngineRunParallelDeterministicError(t *testing.T) {
	eng := smallEngine(t)
	for round := 0; round < 10; round++ {
		_, err := eng.Run("fig3", "nope_a", "funnel", "nope_b", "nope_c")
		var unknown *UnknownAnalysisError
		if !errors.As(err, &unknown) || unknown.Name != "nope_a" {
			t.Fatalf("round %d: err = %v, want UnknownAnalysisError for nope_a", round, err)
		}
	}
}

// TestEngineWorkerBoundThreadsToDataset: WithWorkers must reach
// analyses with internal parallelism via Dataset.Workers.
func TestEngineWorkerBoundThreadsToDataset(t *testing.T) {
	ds, err := New(WithSource(SliceSource(nil)), WithWorkers(3)).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Workers != 3 {
		t.Errorf("Dataset.Workers = %d, want the engine's bound 3", ds.Workers)
	}
}

// TestReportSectionsRegistered checks the report's one section table
// against the registry: every name it lists is registered, once, and
// renders through its own Text rather than the JSON fallback.
func TestReportSectionsRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, sec := range reportSections {
		if len(sec.names) == 0 {
			t.Errorf("section %q lists no analyses", sec.title)
		}
		for _, name := range sec.names {
			reg, ok := analysis.Lookup(name)
			if !ok {
				t.Errorf("section %q lists %q, which is not registered", sec.title, name)
			} else if reg.Text == nil {
				t.Errorf("section %q lists %q, which has no Text renderer", sec.title, name)
			}
			if seen[name] {
				t.Errorf("%q appears in more than one report section", name)
			}
			seen[name] = true
		}
	}
}

// TestCachedSourceUnwritableCache: a cache that cannot be written is
// best-effort — ingestion that already succeeded must not fail.
func TestCachedSourceUnwritableCache(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir,
		CachePath: filepath.Join(t.TempDir(), "missing", "sub", "c.gob")}
	n := 0
	if err := src.Each(0, func(*model.Run) error { n++; return nil }); err != nil {
		t.Fatalf("unwritable cache failed the stream: %v", err)
	}
	if n != len(runs) {
		t.Errorf("streamed %d of %d", n, len(runs))
	}
}

func TestAnalysisAsTypeMismatch(t *testing.T) {
	eng := smallEngine(t)
	_, err := AnalysisAs[int](eng, "fig3")
	if err == nil || !strings.Contains(err.Error(), "fig3") {
		t.Fatalf("type mismatch should name the analysis, got %v", err)
	}
}

func TestEngineWriteJSON(t *testing.T) {
	eng := smallEngine(t)
	var buf bytes.Buffer
	if err := eng.WriteJSONRequests(&buf, Request{Name: "funnel"}, Request{Name: "top100"}); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Name        string          `json:"name"`
		Description string          `json:"description"`
		Value       json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 || decoded[0].Name != "funnel" || decoded[1].Name != "top100" {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded[0].Description == "" {
		t.Error("descriptions should be carried into JSON")
	}
	// Funnel reject reasons marshal by name, not enum ordinal.
	if !strings.Contains(string(decoded[0].Value), "not accepted by SPEC") {
		t.Errorf("funnel JSON should name reject reasons: %s", decoded[0].Value)
	}
}

// TestRunDescriptionsMatchRegistry pins the {name, description, value}
// contract of Run/WriteJSONRequests to the registry: every result carries its
// registry description verbatim, so JSON consumers (the specanalyze
// -json output, the HTTP server) never need a second lookup. This keeps
// the engine output and the registry from drifting apart.
func TestRunDescriptionsMatchRegistry(t *testing.T) {
	eng := smallEngine(t)
	names := []string{"funnel", "fig1", "top100", "table1"}
	results, err := eng.Run(names...)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Name != names[i] {
			t.Fatalf("result %d is %q, want request order %v", i, res.Name, names)
		}
		reg, ok := analysis.Lookup(res.Name)
		if !ok {
			t.Fatalf("result %q not in registry", res.Name)
		}
		if res.Description != reg.Description {
			t.Errorf("%s: description %q differs from registry %q",
				res.Name, res.Description, reg.Description)
		}
		if res.Description == "" {
			t.Errorf("%s: empty description", res.Name)
		}
	}
	// And the JSON encoding carries all three fields for every result.
	var buf bytes.Buffer
	if err := eng.WriteJSONRequests(&buf, requestsFor(names)...); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(names) {
		t.Fatalf("encoded %d results for %d names", len(decoded), len(names))
	}
	for i, obj := range decoded {
		for _, field := range []string{"name", "description", "value"} {
			if _, ok := obj[field]; !ok {
				t.Errorf("result %d (%s) missing JSON field %q", i, names[i], field)
			}
		}
	}
}

// TestEngineWriteAnalysisText: each registered analysis prints through
// its own Text renderer — a title line, then exactly the renderer's
// body — never through the indented-JSON fallback. The probes other
// tests in this package register are skipped.
func TestEngineWriteAnalysisText(t *testing.T) {
	results, err := multiYearEngine(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	for _, res := range results {
		if strings.HasPrefix(res.Name, "test_") {
			continue
		}
		reg, _ := analysis.Lookup(res.Name)
		if reg.Text == nil {
			t.Errorf("%s: no Text renderer, falls back to JSON", res.Name)
			continue
		}
		var got, body bytes.Buffer
		if err := WriteAnalysisText(&got, res); err != nil {
			t.Fatal(err)
		}
		reg.Text(&body, res.Value)
		if body.Len() == 0 || !strings.HasSuffix(got.String(), "\n"+body.String()) {
			t.Errorf("%s: text output does not end in its renderer's body:\n%s", res.Name, got.String())
		}
		all.Write(got.Bytes())
	}
	for _, want := range []string{
		"raw results:", "yearly means:", "S3 @", "Benchmark",
	} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("rendered text missing %q", want)
		}
	}
}

// TestWriteAnalysisTextJSONFallback: an analysis without a Text
// renderer prints as indented JSON.
func TestWriteAnalysisTextJSONFallback(t *testing.T) {
	var buf bytes.Buffer
	res := Result{Name: "unregistered", Description: "d", Value: map[string]int{"a": 1}}
	if err := WriteAnalysisText(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "{\n  \"a\": 1\n}\n") {
		t.Errorf("fallback text = %q", buf.String())
	}
}

// failingSource errors on every stream.
type failingSource struct{}

func (failingSource) Name() string { return "failing" }

func (failingSource) Each(int, func(*model.Run) error) error {
	return errors.New("boom")
}

// TestEngineIngestionFailed: the flag is false before ingestion and
// after a successful one, true only once an ingestion has completed
// with an error — the signal long-lived engine caches evict on.
func TestEngineIngestionFailed(t *testing.T) {
	bad := New(WithSource(failingSource{}))
	if bad.IngestionFailed() {
		t.Error("IngestionFailed before any ingestion")
	}
	if _, err := bad.Dataset(); err == nil {
		t.Fatal("failing source should error")
	}
	if !bad.IngestionFailed() {
		t.Error("IngestionFailed false after a failed ingestion")
	}
	// An analysis error alone (healthy corpus, unknown name is checked
	// elsewhere) must not trip the flag.
	good := smallEngine(t)
	if _, err := good.Dataset(); err != nil {
		t.Fatal(err)
	}
	if good.IngestionFailed() {
		t.Error("IngestionFailed true after a successful ingestion")
	}
}

// TestEngineStaticAnalysisSkipsIngestion: corpus-independent analyses
// (table1) must not trigger source streaming.
func TestEngineStaticAnalysisSkipsIngestion(t *testing.T) {
	var streams atomic.Int64
	eng := New(WithSource(countingSource{inner: SliceSource(nil), streams: &streams}))
	if _, err := eng.Run("table1"); err != nil {
		t.Fatal(err)
	}
	if got := streams.Load(); got != 0 {
		t.Errorf("static analysis streamed the source %d times, want 0", got)
	}
}

func TestEngineLazyConstruction(t *testing.T) {
	// Construction must not touch the source; only the first analysis
	// call may.
	var streams atomic.Int64
	eng := New(WithSource(countingSource{inner: SliceSource(nil), streams: &streams}))
	if streams.Load() != 0 {
		t.Fatal("New streamed the source eagerly")
	}
	if _, err := eng.Dataset(); err != nil {
		t.Fatal(err)
	}
	if streams.Load() != 1 {
		t.Fatalf("Dataset streamed %d times", streams.Load())
	}
}

// TestEngineObserver: lifecycle callbacks fire exactly once per actual
// event — one Ingest per streamed engine no matter how many goroutines
// race on Dataset, one Compute per memoized computation (hits silent),
// each with the analysis identity and a positive duration.
func TestEngineObserver(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var ingests, computes atomic.Int64
	var ingestRuns atomic.Int64
	type computeEvent struct {
		name, params string
	}
	var mu sync.Mutex
	var events []computeEvent
	eng := New(WithSource(SliceSource(runs)), WithHook(func(ev Event) {
		switch ev.Kind {
		case EventIngest:
			if ev.Err != nil {
				t.Errorf("ingest observer got error: %v", ev.Err)
			}
			if ev.End.Sub(ev.Start) <= 0 {
				t.Error("ingest observer got non-positive duration")
			}
			ingests.Add(1)
			ingestRuns.Store(int64(ev.Runs))
		case EventCompute:
			if ev.Err != nil {
				t.Errorf("compute observer got error for %s: %v", ev.Name, ev.Err)
			}
			if ev.End.Sub(ev.Start) < 0 {
				t.Errorf("compute observer got negative duration for %s", ev.Name)
			}
			computes.Add(1)
			mu.Lock()
			events = append(events, computeEvent{ev.Name, ev.Params})
			mu.Unlock()
		}
	}))

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Run("fig3", "funnel"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if got := ingests.Load(); got != 1 {
		t.Errorf("ingest fired %d times, want 1", got)
	}
	if got := ingestRuns.Load(); got != int64(len(runs)) {
		t.Errorf("ingest reported %d runs, want %d", got, len(runs))
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("compute fired %d times, want 2 (fig3, funnel — hits silent)", got)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.params != "" {
			t.Errorf("default request reported params %q", ev.params)
		}
		seen[ev.name] = true
	}
	if !seen["fig3"] || !seen["funnel"] {
		t.Errorf("compute events = %+v, want fig3 and funnel", events)
	}

	// Warm repeat: everything memoized, no further events.
	if _, err := eng.Run("fig3", "funnel"); err != nil {
		t.Fatal(err)
	}
	if ingests.Load() != 1 || computes.Load() != 2 {
		t.Errorf("warm repeat re-fired observers: ingests=%d computes=%d",
			ingests.Load(), computes.Load())
	}
}

// TestEngineObserverIngestError: a failed ingestion still reports to
// the observer, with the error and zero runs.
func TestEngineObserverIngestError(t *testing.T) {
	var gotErr error
	var calls int
	eng := New(WithSource(failingSource{}), WithHook(func(ev Event) {
		if ev.Kind != EventIngest {
			return
		}
		calls++
		gotErr = ev.Err
		if ev.Runs != 0 {
			t.Errorf("failed ingest reported %d runs", ev.Runs)
		}
	}))
	if _, err := eng.Dataset(); err == nil {
		t.Fatal("failing source should error")
	}
	if calls != 1 || gotErr == nil {
		t.Errorf("ingest observer: calls=%d err=%v, want 1 call with the error", calls, gotErr)
	}
}

// TestEngineHookOwner: each event carries the Owner of the request that
// did the work, hits carry the asker, unowned work reports a nil owner,
// and kernel events reach the hook only from owned computations.
func TestEngineHookOwner(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seq []string
	kernels := map[any]int{}
	eng := New(WithSource(SliceSource(runs)), WithHook(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Kind == EventKernel {
			kernels[ev.Owner]++
			return
		}
		seq = append(seq, fmt.Sprintf("%d:%v", ev.Kind, ev.Owner))
	}))
	reg, _ := analysis.Lookup("clusters")
	k2, err := reg.Params.Resolve(map[string]string{"k": "2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Name: "funnel", Owner: "a"},
		{Name: "funnel", Owner: "b"},
		{Name: "clusters", Params: k2, Owner: "c"},
		{Name: "fig3"},
	} {
		if _, err := eng.AnalysisRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	// a ingests and computes, b hits, c computes, fig3 is unowned.
	if got, want := fmt.Sprint(seq), "[1:a 2:a 3:b 2:c 2:<nil>]"; got != want {
		t.Errorf("events = %s, want %s", got, want)
	}
	if len(kernels) != 1 || kernels["c"] == 0 {
		t.Errorf("kernel events by owner = %v, want c's only", kernels)
	}
}

// TestEngineMemoStats: hits + misses equals AnalysisRequest calls, the
// EventHit event fires once per hit, and RunsIngested reports
// the corpus size only after a successful ingestion.
func TestEngineMemoStats(t *testing.T) {
	registerMemoProbe()
	var hits atomic.Int64
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithSource(SliceSource(runs)), WithHook(func(ev Event) {
		if ev.Kind != EventHit {
			return
		}
		if ev.Name != "test_memo_probe" || ev.Params != "" {
			t.Errorf("Hit(%q, %q)", ev.Name, ev.Params)
		}
		hits.Add(1)
	}))
	if got := eng.RunsIngested(); got != 0 {
		t.Errorf("RunsIngested before ingestion = %d, want 0", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Analysis("test_memo_probe"); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.MemoStats()
	if st.Misses != 1 || st.Hits != 4 || st.Entries != 1 {
		t.Errorf("MemoStats = %+v, want 1 miss, 4 hits, 1 entry", st)
	}
	if hits.Load() != 4 {
		t.Errorf("EventHit fired %d times, want 4", hits.Load())
	}
	if got := eng.RunsIngested(); got != len(runs) {
		t.Errorf("RunsIngested = %d, want %d", got, len(runs))
	}
}

// TestEngineMemoStatsParamMix mirrors BenchmarkParamMemoization's
// shape: one miss per distinct parameterization, hits on repeats.
func TestEngineMemoStatsParamMix(t *testing.T) {
	eng := smallEngine(t)
	reg, ok := analysis.Lookup("clusters")
	if !ok {
		t.Fatal("clusters not registered")
	}
	k4, err := reg.Params.Resolve(map[string]string{"k": "4"})
	if err != nil {
		t.Fatal(err)
	}
	k5, err := reg.Params.Resolve(map[string]string{"k": "5"})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Name: "clusters", Params: k4}, // miss
		{Name: "clusters", Params: k4}, // hit
		{Name: "clusters", Params: k5}, // miss
		{Name: "clusters", Params: k4}, // hit
	} {
		if _, err := eng.AnalysisRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.MemoStats()
	if st.Misses != 2 || st.Hits != 2 || st.Entries != 2 {
		t.Errorf("MemoStats = %+v, want 2 misses, 2 hits, 2 entries", st)
	}
}
