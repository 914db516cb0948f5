package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/model"
	"repro/internal/synth"
)

// countingRender returns a render func that counts its calls and wraps
// each value in a fresh pointer, so callers can tell stored output
// (same pointer) from a re-render (new pointer).
func countingRender(calls *atomic.Int64) func(any) (any, error) {
	return func(v any) (any, error) {
		calls.Add(1)
		return &[]any{v}, nil
	}
}

// TestAnalysisRenderedOnce: concurrent callers of one memo entry share
// one compute and one render, all get the stored output, and every call
// still counts as one memo hit or miss.
func TestAnalysisRenderedOnce(t *testing.T) {
	eng := smallEngine(t)
	var renders atomic.Int64
	render := countingRender(&renders)
	const n = 16
	outs := make([]any, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := eng.AnalysisRendered(Request{Name: "funnel"}, render)
			if err != nil {
				t.Error(err)
			}
			outs[i] = out
		}()
	}
	wg.Wait()
	if got := renders.Load(); got != 1 {
		t.Errorf("render ran %d times for one memo entry, want 1", got)
	}
	for i, out := range outs {
		if out != outs[0] {
			t.Fatalf("caller %d got output %p, caller 0 got %p", i, out, outs[0])
		}
	}
	v, err := eng.Analysis("funnel")
	if err != nil {
		t.Fatal(err)
	}
	if stored := (*outs[0].(*[]any))[0]; !reflect.DeepEqual(stored, v) {
		t.Errorf("render saw %v, AnalysisRequest returns %v", stored, v)
	}
	if st := eng.MemoStats(); st.Misses != 1 || st.Hits != n {
		t.Errorf("memo hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, n)
	}
}

// TestAnalysisRenderedSkipsComputeError: a compute error reaches every
// caller unchanged and is never handed to render.
func TestAnalysisRenderedSkipsComputeError(t *testing.T) {
	reg, ok := analysis.Lookup("clusters")
	if !ok {
		t.Fatal("clusters not registered")
	}
	// hac with neither k nor cut passes per-key validation and fails in
	// the computation.
	params, err := reg.Params.Resolve(map[string]string{"algo": "hac"})
	if err != nil {
		t.Fatal(err)
	}
	eng := smallEngine(t)
	var renders atomic.Int64
	render := countingRender(&renders)
	for range 3 {
		out, err := eng.AnalysisRendered(Request{Name: "clusters", Params: params}, render)
		var bad *analysis.BadParamsError
		if !errors.As(err, &bad) || out != nil {
			t.Fatalf("got (%v, %v), want the compute's BadParamsError", out, err)
		}
	}
	if got := renders.Load(); got != 0 {
		t.Errorf("render ran %d times over a compute error", got)
	}
	var unknown *UnknownAnalysisError
	if _, err := eng.AnalysisRendered(Request{Name: "no-such-analysis"}, render); !errors.As(err, &unknown) {
		t.Errorf("unknown name: err = %v, want UnknownAnalysisError", err)
	}
}

// TestAnalysisRenderedRenderError: a render error is memoized with the
// output it failed to produce; the value itself stays served.
func TestAnalysisRenderedRenderError(t *testing.T) {
	eng := smallEngine(t)
	var calls atomic.Int64
	fail := func(any) (any, error) {
		calls.Add(1)
		return nil, errors.New("encode failed")
	}
	for range 2 {
		if _, err := eng.AnalysisRendered(Request{Name: "funnel"}, fail); err == nil || err.Error() != "encode failed" {
			t.Fatalf("err = %v, want the render error", err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("failing render ran %d times, want 1", calls.Load())
	}
	if _, err := eng.Analysis("funnel"); err != nil {
		t.Errorf("value unavailable after a render error: %v", err)
	}
}

// TestAnalysisRenderedDroppedWithMemo: stored output lives exactly as
// long as its memo entry — an append drops it with the memos whose
// input stage gained rows and keeps it on the rest, and paramMemoLimit
// eviction drops it with the evicted entry.
func TestAnalysisRenderedDroppedWithMemo(t *testing.T) {
	runs, err := synth.Generate(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithSource(SliceSource(runs)))
	renders := map[string]*atomic.Int64{"funnel": {}, "table1": {}}
	outs := map[string]any{}
	renderAll := func() {
		t.Helper()
		for name, calls := range renders {
			out, err := eng.AnalysisRendered(Request{Name: name}, countingRender(calls))
			if err != nil {
				t.Fatal(err)
			}
			outs[name] = out
		}
	}
	renderAll()
	before := map[string]any{"funnel": outs["funnel"], "table1": outs["table1"]}

	// A parse-stage reject grows only the raw set: funnel (raw) loses
	// its memo and its rendering, table1 (no input) keeps both.
	ds, err := eng.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	reject := *ds.Comparable[0]
	reject.ID = "render-parse-reject"
	reject.Accepted = false
	if _, err := eng.Append([]*model.Run{&reject}); err != nil {
		t.Fatal(err)
	}
	renderAll()
	if got := renders["funnel"].Load(); got != 2 {
		t.Errorf("funnel rendered %d times across an invalidating append, want 2", got)
	}
	if outs["funnel"] == before["funnel"] {
		t.Error("funnel served stored output from before the append")
	}
	if got := renders["table1"].Load(); got != 1 {
		t.Errorf("table1 rendered %d times across a retaining append, want 1", got)
	}
	if outs["table1"] != before["table1"] {
		t.Error("table1 lost its stored output across a retaining append")
	}

	// Eviction: past the bound the oldest parameterization goes, and
	// its rendering with it; the newest keeps its rendering.
	registerParamProbe()
	var oldest, newest atomic.Int64
	request := func(k int) Request {
		return Request{Name: "test_param_probe", Params: paramProbeParams(t, map[string]string{"k": fmt.Sprint(k)})}
	}
	if _, err := eng.AnalysisRendered(request(2), countingRender(&oldest)); err != nil {
		t.Fatal(err)
	}
	for k := 3; k < paramMemoLimit+3; k++ {
		if _, err := eng.AnalysisRendered(request(k), countingRender(&newest)); err != nil {
			t.Fatal(err)
		}
	}
	newest.Store(0)
	for _, k := range []int{2, paramMemoLimit + 2} {
		calls := &newest
		if k == 2 {
			calls = &oldest
		}
		if _, err := eng.AnalysisRendered(request(k), countingRender(calls)); err != nil {
			t.Fatal(err)
		}
	}
	if got := oldest.Load(); got != 2 {
		t.Errorf("evicted entry rendered %d times, want 2 (re-rendered after eviction)", got)
	}
	if got := newest.Load(); got != 0 {
		t.Errorf("resident entry re-rendered %d times, want 0", got)
	}
}

// TestReportRendered: the report is rendered once per corpus state —
// the bytes render receives are WriteReport's — and any append drops
// it, so the next call renders the grown corpus.
func TestReportRendered(t *testing.T) {
	runs, err := synth.Generate(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithSource(SliceSource(runs)))
	var renders atomic.Int64
	render := func(report []byte) (any, error) {
		renders.Add(1)
		return string(report), nil
	}
	first, err := eng.ReportRendered(render)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := eng.WriteReport(&want); err != nil {
		t.Fatal(err)
	}
	if first != want.String() {
		t.Error("stored report differs from WriteReport's bytes")
	}
	lookups := eng.MemoStats()
	if again, err := eng.ReportRendered(render); err != nil || again != first {
		t.Fatalf("repeat report: err %v, same bytes %v", err, again == first)
	}
	if renders.Load() != 1 {
		t.Errorf("report rendered %d times on an unchanged corpus, want 1", renders.Load())
	}
	if eng.MemoStats() != lookups {
		t.Error("a stored report still looked analyses up")
	}

	ds, err := eng.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	extra := *ds.Comparable[0]
	extra.ID = "report-append"
	if _, err := eng.Append([]*model.Run{&extra}); err != nil {
		t.Fatal(err)
	}
	after, err := eng.ReportRendered(render)
	if err != nil {
		t.Fatal(err)
	}
	if renders.Load() != 2 || after == first {
		t.Errorf("after an append: %d renders, bytes changed %v; want 2, true", renders.Load(), after != first)
	}
}
