package core

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/model"
	"repro/internal/synth"
)

// appendTestOptions spans enough yearly bins for every registered
// analysis (trends, changepoint) to compute.
func appendTestOptions() synth.Options {
	return synth.Options{
		Seed: 11,
		Plan: []synth.YearPlan{
			{Year: 2008, Parsed: 10, AMDShare: 0.25, LinuxShare: 0.02, TwoSocketShare: 0.7},
			{Year: 2012, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.05, TwoSocketShare: 0.7},
			{Year: 2016, Parsed: 10, AMDShare: 0.10, LinuxShare: 0.10, TwoSocketShare: 0.7},
			{Year: 2018, Parsed: 10, AMDShare: 0.20, LinuxShare: 0.20, TwoSocketShare: 0.7},
			{Year: 2020, Parsed: 10, AMDShare: 0.30, LinuxShare: 0.30, TwoSocketShare: 0.7},
			{Year: 2023, Parsed: 10, AMDShare: 0.35, LinuxShare: 0.40, TwoSocketShare: 0.7},
		},
	}
}

func TestAppendSourceStreamAndFingerprint(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	src := NewAppendSource(SliceSource(base))
	if got := src.Generation(); got != 0 {
		t.Fatalf("fresh generation = %d, want 0", got)
	}
	fp0, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	if gen := src.Append(extra); gen != 1 {
		t.Fatalf("Append generation = %d, want 1", gen)
	}
	var ids []string
	if err := src.Each(0, func(r *model.Run) error {
		ids = append(ids, r.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(runs) {
		t.Fatalf("streamed %d runs, want %d", len(ids), len(runs))
	}
	if ids[len(ids)-1] != extra.ID {
		t.Errorf("overlay run not streamed last: got %s", ids[len(ids)-1])
	}
	fp1, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp0 {
		t.Error("fingerprint unchanged after Append")
	}

	// Bump advances the generation (and therefore the fingerprint)
	// without touching the overlay — the watcher path, where the inner
	// source already carries the new content.
	if gen := src.Bump(); gen != 2 {
		t.Fatalf("Bump generation = %d, want 2", gen)
	}
	if src.AppendedRuns() != 1 {
		t.Errorf("AppendedRuns = %d, want 1", src.AppendedRuns())
	}
	fp2, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp1 {
		t.Error("fingerprint unchanged after Bump")
	}
	again, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if again != fp2 {
		t.Error("fingerprint not deterministic for a quiesced source")
	}
	if parts := src.SourceParts(); len(parts) != 2 {
		t.Errorf("SourceParts = %d parts, want inner + overlay", len(parts))
	}
}

// TestAppendSourceFingerprintCache pins the kept inner fingerprint over
// a directory: a file that lands without a Bump leaves the fingerprint
// alone, Bump makes the next one see it, and every fingerprint equals
// the uncached formula — Digest("append", generation, a fresh walk of
// the directory, overlay IDs...) — also after a concurrent mix of
// Fingerprint, Append and Bump.
func TestAppendSourceFingerprintCache(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, late := runs[:len(runs)-2], runs[len(runs)-2:]
	dir := t.TempDir()
	if err := WriteCorpus(dir, base, 0); err != nil {
		t.Fatal(err)
	}
	src := NewAppendSource(DirSource{Dir: dir})
	var overlay []string
	uncached := func(gen uint64) string {
		t.Helper()
		inner, err := DirSource{Dir: dir}.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return Digest(append([]string{"append", strconv.FormatUint(gen, 10), inner}, overlay...)...)
	}
	fingerprint := func() string {
		t.Helper()
		fp, err := src.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	if got, want := fingerprint(), uncached(0); got != want {
		t.Fatalf("first fingerprint %s, want %s", got, want)
	}
	posted := *late[0]
	posted.ID = "cache-posted"
	src.Append(&posted)
	overlay = append(overlay, posted.ID)
	afterAppend := fingerprint()
	if want := uncached(1); afterAppend != want {
		t.Fatalf("after Append: %s, want %s", afterAppend, want)
	}

	// A file lands in the directory, but nobody says so: the kept inner
	// fingerprint still describes the corpus as it was taken.
	if err := WriteCorpus(dir, late[1:], 0); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(); got != afterAppend {
		t.Fatalf("a file landed without Bump and the fingerprint moved: %s -> %s", afterAppend, got)
	}
	if gen := src.Bump(); gen != 2 {
		t.Fatalf("Bump generation = %d, want 2", gen)
	}
	afterBump := fingerprint()
	if afterBump == afterAppend {
		t.Fatal("fingerprint unchanged after Bump")
	}
	if want := uncached(2); afterBump != want {
		t.Fatalf("after Bump: %s, want the uncached %s", afterBump, want)
	}

	// Concurrent readers, appends and bumps: run under -race, and the
	// fingerprint of the quiesced source is still the uncached one.
	const appends, bumps = 20, 10
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := src.Fingerprint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ids := make([]string, appends)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range ids {
			r := *late[0]
			r.ID = fmt.Sprintf("cache-concurrent-%d", i)
			ids[i] = r.ID
			src.Append(&r)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			src.Bump()
		}
	}()
	wg.Wait()
	overlay = append(overlay, ids...)
	gen := src.Generation()
	if gen != 2+appends+bumps {
		t.Fatalf("generation %d after the concurrent loop, want %d", gen, 2+appends+bumps)
	}
	if got, want := fingerprint(), uncached(gen); got != want {
		t.Fatalf("after the concurrent loop: %s, want the uncached %s", got, want)
	}
}

// TestEngineAppendEquivalence pins the delta path to the batch path:
// ingesting N runs and appending M more must produce byte-identical
// analysis output to ingesting all N+M at once.
func TestEngineAppendEquivalence(t *testing.T) {
	runs, err := synth.Generate(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	split := len(runs) - 7

	batch := New(WithSource(SliceSource(runs)))
	var want bytes.Buffer
	if err := batch.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	inc := New(WithSource(SliceSource(runs[:split])))
	if _, err := inc.Dataset(); err != nil {
		t.Fatal(err)
	}
	st, err := inc.Append(runs[split:])
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 7 {
		t.Fatalf("AppendStats.Appended = %d, want 7", st.Appended)
	}
	var got bytes.Buffer
	if err := inc.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("append path diverged from batch ingestion:\nbatch:  %.200s\nappend: %.200s",
			want.String(), got.String())
	}
}

// clusteringCorners are the clustering parameterizations the
// append-equivalence test pins, one per algorithm branch: auto-k and
// explicit k for k-means and mini-batch, and both HAC cut modes.
var clusteringCorners = []map[string]string{
	nil, // kmeans, auto-k
	{"k": "4"},
	{"algo": "hac", "k": "4"},
	{"algo": "hac", "cut": "3"},
	{"algo": "minibatch"}, // auto-k
	{"algo": "minibatch", "k": "6", "batch": "32"},
}

// clusteringRequests resolves every corner for "clusters" and
// "cluster-profiles", plus "cluster-sweep" at its default and at a
// narrower range.
func clusteringRequests(t *testing.T) []Request {
	t.Helper()
	resolve := func(name string, raw map[string]string) Request {
		reg, ok := analysis.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		p, err := reg.Params.Resolve(raw)
		if err != nil {
			t.Fatal(err)
		}
		return Request{Name: name, Params: p}
	}
	var reqs []Request
	for _, raw := range clusteringCorners {
		reqs = append(reqs, resolve("clusters", raw), resolve("cluster-profiles", raw))
	}
	return append(reqs, resolve("cluster-sweep", nil),
		resolve("cluster-sweep", map[string]string{"kmax": "5"}))
}

// TestEngineAppendEquivalenceClustering extends the append ≡ rebuild
// pin to every clustering branch: an engine that served the clustering
// corners before an append serves, after it, the bytes an engine
// ingesting the whole corpus at once does — mini-batch included, at two
// split points.
func TestEngineAppendEquivalenceClustering(t *testing.T) {
	runs, err := synth.Generate(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	reqs := clusteringRequests(t)
	var want bytes.Buffer
	if err := New(WithSource(SliceSource(runs))).WriteJSONRequests(&want, reqs...); err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{len(runs) / 2, len(runs) - 7} {
		inc := New(WithSource(SliceSource(runs[:split])))
		if _, err := inc.RunRequests(reqs...); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Append(runs[split:]); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := inc.WriteJSONRequests(&got, reqs...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("split %d: append path diverged from batch ingestion", split)
		}
	}
}

// TestEngineAppendMemoInvalidation pins the delta-aware invalidation:
// an append only drops the memos whose declared input stage gained
// rows, counted through the engine's hit/miss counters.
func TestEngineAppendMemoInvalidation(t *testing.T) {
	runs, err := synth.Generate(appendTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithSource(SliceSource(runs)))
	ds, err := eng.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Comparable) == 0 {
		t.Fatal("test corpus has no comparable runs")
	}
	warm := func(names ...string) {
		t.Helper()
		for _, name := range names {
			if _, err := eng.Analysis(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One memo per input stage: raw, parsed, comparable, none.
	warm("funnel", "fig1", "fig3", "table1")

	// requery returns how many of the four requests missed the memo.
	requery := func() int64 {
		t.Helper()
		before := eng.MemoStats().Misses
		warm("funnel", "fig1", "fig3", "table1")
		return eng.MemoStats().Misses - before
	}

	tmpl := *ds.Comparable[0]

	// A parse-stage reject only grows the raw set: funnel recomputes,
	// everything else stays warm.
	reject := tmpl
	reject.ID = "append-parse-reject"
	reject.Accepted = false
	st, err := eng.Append([]*model.Run{&reject})
	if err != nil {
		t.Fatal(err)
	}
	if st.Parsed != 0 || st.Comparable != 0 {
		t.Fatalf("parse-rejected append classified as %+v", st)
	}
	if st.Invalidated != 1 || st.Retained != 3 {
		t.Errorf("parse-reject invalidated %d / retained %d, want 1/3",
			st.Invalidated, st.Retained)
	}
	if n := requery(); n != 1 {
		t.Errorf("after parse-reject append: %d recomputes, want 1 (funnel)", n)
	}
	f, err := AnalysisAs[analysis.Funnel](eng, "funnel")
	if err != nil {
		t.Fatal(err)
	}
	if f.Raw != len(runs)+1 {
		t.Errorf("funnel.Raw = %d, want %d", f.Raw, len(runs)+1)
	}

	// A comparability reject grows raw + parsed: fig3 (comparable) and
	// table1 (static) stay warm.
	other := tmpl
	other.ID = "append-comp-reject"
	other.CPUVendor = model.VendorOther
	if st, err = eng.Append([]*model.Run{&other}); err != nil {
		t.Fatal(err)
	}
	if st.Parsed != 1 || st.Comparable != 0 {
		t.Fatalf("comparability-rejected append classified as %+v", st)
	}
	if st.Invalidated != 2 || st.Retained != 2 {
		t.Errorf("comp-reject invalidated %d / retained %d, want 2/2",
			st.Invalidated, st.Retained)
	}
	if n := requery(); n != 2 {
		t.Errorf("after comp-reject append: %d recomputes, want 2 (funnel, fig1)", n)
	}

	// A comparable run invalidates every corpus-reading memo; the
	// static table alone survives.
	comp := tmpl
	comp.ID = "append-comparable"
	if st, err = eng.Append([]*model.Run{&comp}); err != nil {
		t.Fatal(err)
	}
	if st.Comparable != 1 {
		t.Fatalf("comparable append classified as %+v", st)
	}
	if st.Invalidated != 3 || st.Retained != 1 {
		t.Errorf("comparable invalidated %d / retained %d, want 3/1",
			st.Invalidated, st.Retained)
	}
	if n := requery(); n != 3 {
		t.Errorf("after comparable append: %d recomputes, want 3", n)
	}
}

func TestEngineAppendEmptyIsNoOp(t *testing.T) {
	eng := smallEngine(t)
	if _, err := eng.Dataset(); err != nil {
		t.Fatal(err)
	}
	before := eng.RunsIngested()
	st, err := eng.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != (AppendStats{}) {
		t.Errorf("empty append reported %+v", st)
	}
	if eng.RunsIngested() != before {
		t.Errorf("empty append changed the corpus: %d -> %d", before, eng.RunsIngested())
	}
}

// BenchmarkAppendVsRebuild is the acceptance benchmark: folding one
// run into a warm engine (and recomputing the one analysis it
// invalidates) must beat dropping the engine and re-classifying the
// full synthetic corpus by at least 5x.
func BenchmarkAppendVsRebuild(b *testing.B) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	newRun := func(i int) *model.Run {
		r := *runs[0]
		r.ID = fmt.Sprintf("bench-append-%d", i)
		return &r
	}

	b.Run("append", func(b *testing.B) {
		eng := New(WithSource(SliceSource(runs)))
		if _, err := eng.Analysis("funnel"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Append([]*model.Run{newRun(i)}); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Analysis("funnel"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grown := make([]*model.Run, 0, len(runs)+1)
			grown = append(grown, runs...)
			grown = append(grown, newRun(i))
			eng := New(WithSource(SliceSource(grown)))
			if _, err := eng.Analysis("funnel"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
