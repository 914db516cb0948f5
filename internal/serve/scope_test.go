package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// defaultCorpus is the default synthetic corpus, generated once per
// test binary.
var defaultCorpus = sync.OnceValues(func() ([]*model.Run, error) {
	return synth.Generate(synth.DefaultOptions())
})

func defaultRuns(t testing.TB) []*model.Run {
	t.Helper()
	runs, err := defaultCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// exploreFilter is perfbench explore's filter scope s (0 ≤ s < 240):
// 3 vendors × first years 2005–2014 × last years 2016–2023.
func exploreFilter(s int) string {
	vendors := []string{"amd", "intel", "amd|intel"}
	return fmt.Sprintf("vendor=%s,year=%d-%d", vendors[s%3], 2005+s/3%10, 2016+s/30)
}

// TestScopeViewsMatchFreshIngest pins that a filter scope served as a
// view of the root engine is byte-identical to a fresh ingest of the
// same slice: across every explore scope, each scoped analysis's body
// and ETag equal those of a new engine over a FilterSource of the base,
// validated by that FilterSource's own fingerprint. The pool is as
// small as explore's, so scopes are also rebuilt from an evicted root.
func TestScopeViewsMatchFreshIngest(t *testing.T) {
	base := core.SliceSource(defaultRuns(t))
	s := New(Config{Base: base, PoolSize: 8, TraceBufferSize: -1})
	for i := 0; i < 240; i++ {
		sc, err := parseScope(exploreFilter(i))
		if err != nil {
			t.Fatal(err)
		}
		fresh := core.FilterSource{Inner: base, Keep: sc.keep, Desc: sc.expr}
		fp, err := fresh.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		ref := core.New(core.WithSource(fresh))
		for _, name := range []string{"fig2", "fig3", "fig5", "funnel", "ep"} {
			rec := get(t, s, "/v1/analyses/"+name+"?filter="+url.QueryEscape(sc.expr))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", sc.expr, name, rec.Code, rec.Body)
			}
			v, err := ref.Analysis(name)
			if err != nil {
				t.Fatal(err)
			}
			reg, _ := analysis.Lookup(name)
			want, err := encodeJSON(analysisResponse{Name: name, Description: reg.Description,
				Filter: sc.expr, Value: v})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Body.String() != string(want) {
				t.Fatalf("%s %s: view body differs from a fresh ingest", sc.expr, name)
			}
			if got, want := rec.Header().Get("ETag"), etagFor(fp, "analysis", name, sc.expr, ""); got != want {
				t.Fatalf("%s %s: ETag %s, fresh ingest's %s", sc.expr, name, got, want)
			}
		}
	}
}

// TestScopeServesRootCorpusWithoutWatch pins the behavior for a corpus
// directory that changes under a server started without live
// ingestion: a scope built after the change is a view of the root as
// the root ingested it, so it neither sees the new file nor takes a
// fingerprint the root does not have.
func TestScopeServesRootCorpusWithoutWatch(t *testing.T) {
	runs := testRuns(t)
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, base, 0); err != nil {
		t.Fatal(err)
	}
	rootFP, err := core.DirSource{Dir: dir}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Base: core.DirSource{Dir: dir}})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteCorpus(dir, []*model.Run{extra}, 0); err != nil {
		t.Fatal(err)
	}

	expr := "vendor=" + strings.ToLower(extra.CPUVendor.String())
	want := 0
	for _, r := range base {
		if r.CPUVendor == extra.CPUVendor {
			want++
		}
	}
	rec := get(t, s, "/v1/analyses/funnel?filter="+expr)
	if rec.Code != http.StatusOK {
		t.Fatalf("scope = %d: %s", rec.Code, rec.Body)
	}
	if got := funnelRaw(t, rec.Body.Bytes()); got != want {
		t.Errorf("scope funnel.Raw = %d, want the root's %d (new file excluded)", got, want)
	}
	wantETag := etagFor(core.Digest("filter", expr, rootFP), "analysis", "funnel", expr, "")
	if got := rec.Header().Get("ETag"); got != wantETag {
		t.Errorf("scope ETag %s, want %s (derived from the root's fingerprint)", got, wantETag)
	}
}

// TestScopeIngestTraceSource pins the scope ingest span: the request
// that first reads a scope owns its ingestion, whose source is the
// frozen view of the root — filter(<expr>, slice[n]) — with no
// per-part children, even over a base that decomposes into parts.
func TestScopeIngestTraceSource(t *testing.T) {
	runs := testRuns(t)
	half := len(runs) / 2
	s := New(Config{Base: core.MergeSource{core.SliceSource(runs[:half]), core.SliceSource(runs[half:])}})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	amd := 0
	for _, r := range runs {
		if r.CPUVendor == model.VendorAMD {
			amd++
		}
	}
	if rec := get(t, s, "/v1/analyses/funnel?filter=vendor=amd"); rec.Code != http.StatusOK {
		t.Fatalf("scope = %d: %s", rec.Code, rec.Body)
	}
	ingest, ok := findSpan(getTraces(t, s, "/v1/traces?n=1").Traces[0].Root, "ingest")
	if !ok {
		t.Fatal("first scope request owns no ingest span")
	}
	if v, _ := attrValue(ingest, "source"); v != fmt.Sprintf("filter(vendor=amd, slice[%d])", amd) {
		t.Errorf("ingest source = %q, want filter(vendor=amd, slice[%d])", v, amd)
	}
	if len(ingest.Children) != 0 {
		t.Errorf("scope ingest has %d per-part children, want none", len(ingest.Children))
	}
}

// parkingSource parks its first stream after the first run, until
// release closes: the directory listing (for a DirSource) has been
// taken, and a pool build that ingests it holds the append plane. It
// forwards the inner source's fingerprint.
type parkingSource struct {
	inner   core.Source
	once    *sync.Once
	parked  chan struct{}
	release chan struct{}
}

func newParkingSource(inner core.Source) parkingSource {
	return parkingSource{inner: inner, once: new(sync.Once),
		parked: make(chan struct{}), release: make(chan struct{})}
}

func (p parkingSource) Name() string { return p.inner.Name() }

func (p parkingSource) Fingerprint() (string, error) { return core.SourceFingerprint(p.inner) }

func (p parkingSource) Each(workers int, yield func(*model.Run) error) error {
	first := true
	return p.inner.Each(workers, func(r *model.Run) error {
		if first {
			first = false
			p.once.Do(func() {
				close(p.parked)
				<-p.release
			})
		}
		return yield(r)
	})
}

// appendPath is one way a run reaches the live pool: POST /v1/runs
// (AppendRuns, the overlay) or the directory watcher (a new file, then
// AbsorbBaseGrowth).
type appendPath struct {
	name string
	// base returns the corpus source over base.
	base func(t *testing.T, base []*model.Run) core.Source
	// land puts r where the base source sees it, if this path does so
	// (the watcher's file); apply then absorbs it into s.
	land  func(t *testing.T, src core.Source, r *model.Run) *model.Run
	apply func(s *Server, r *model.Run) error
}

var appendPaths = []appendPath{
	{
		name: "post",
		base: func(t *testing.T, base []*model.Run) core.Source { return core.SliceSource(base) },
		land: func(t *testing.T, _ core.Source, r *model.Run) *model.Run { return r },
		apply: func(s *Server, r *model.Run) error {
			_, err := s.AppendRuns(r)
			return err
		},
	},
	{
		name: "watch",
		base: func(t *testing.T, base []*model.Run) core.Source {
			dir := t.TempDir()
			if err := core.WriteCorpus(dir, base, 0); err != nil {
				t.Fatal(err)
			}
			return core.DirSource{Dir: dir}
		},
		land: func(t *testing.T, src core.Source, r *model.Run) *model.Run {
			dir := src.(core.DirSource).Dir
			if err := core.WriteCorpus(dir, []*model.Run{r}, 0); err != nil {
				t.Fatal(err)
			}
			parsed, err := core.ParseResultFile(filepath.Join(dir, r.ID+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			return parsed
		},
		apply: func(s *Server, r *model.Run) error {
			_, err := s.AbsorbBaseGrowth(r)
			return err
		},
	},
}

// amdFixture splits the small corpus into a base and one extra AMD run
// (a copy under a fresh ID) and counts the base's AMD runs.
func amdFixture(t *testing.T) (base []*model.Run, extra *model.Run, amd int) {
	t.Helper()
	base = testRuns(t)
	for _, r := range base {
		if r.CPUVendor == model.VendorAMD {
			amd++
			if extra == nil {
				cp := *r
				cp.ID = "scope-append-extra"
				extra = &cp
			}
		}
	}
	if extra == nil {
		t.Fatal("test corpus has no AMD run")
	}
	return base, extra, amd
}

// wantRaw asserts the funnel's raw count at path.
func wantRaw(t *testing.T, s *Server, path string, want int) {
	t.Helper()
	rec := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
	}
	if got := funnelRaw(t, rec.Body.Bytes()); got != want {
		t.Errorf("%s: funnel.Raw = %d, want %d (each run exactly once)", path, got, want)
	}
}

// TestAppendDuringScopeBuild: a run appended while a scope build is in
// flight — parked inside the root ingestion it triggered — reaches the
// scope, and the root, exactly once.
func TestAppendDuringScopeBuild(t *testing.T) {
	for _, path := range appendPaths {
		t.Run(path.name, func(t *testing.T) {
			base, extra, amd := amdFixture(t)
			inner := path.base(t, base)
			src := newParkingSource(inner)
			s := New(Config{Base: src, Live: true})

			built := make(chan *httptest.ResponseRecorder)
			go func() { built <- get(t, s, "/v1/analyses/funnel?filter=vendor=amd") }()
			<-src.parked
			run := path.land(t, inner, extra)
			appended := make(chan error)
			go func() { appended <- path.apply(s, run) }()
			// Give the append time to block on the in-flight build; the
			// assertions below hold for every interleaving.
			time.Sleep(10 * time.Millisecond)
			close(src.release)
			if rec := <-built; rec.Code != http.StatusOK {
				t.Fatalf("scope during build = %d: %s", rec.Code, rec.Body)
			}
			if err := <-appended; err != nil {
				t.Fatal(err)
			}

			wantRaw(t, s, "/v1/analyses/funnel?filter=vendor=amd", amd+1)
			wantRaw(t, s, "/v1/analyses/funnel", len(base)+1)
		})
	}
}

// TestAppendToUningestedScope: a run appended to a built scope that has
// not ingested its slice yet reaches it exactly once.
func TestAppendToUningestedScope(t *testing.T) {
	for _, path := range appendPaths {
		t.Run(path.name, func(t *testing.T) {
			base, extra, amd := amdFixture(t)
			inner := path.base(t, base)
			s := New(Config{Base: inner, Live: true})
			sc, err := parseScope("vendor=amd")
			if err != nil {
				t.Fatal(err)
			}
			ent, err := s.pool.get(sc, "")
			if err != nil {
				t.Fatal(err)
			}
			if ent.eng.Ingested() {
				t.Fatal("scope ingested at build; want lazy")
			}
			if err := path.apply(s, path.land(t, inner, extra)); err != nil {
				t.Fatal(err)
			}
			wantRaw(t, s, "/v1/analyses/funnel?filter=vendor=amd", amd+1)
			wantRaw(t, s, "/v1/analyses/funnel", len(base)+1)
		})
	}
}

// fingerprintCounter counts its Fingerprint calls — the corpus walks
// the pool makes.
type fingerprintCounter struct {
	core.Source
	walks *atomic.Int64
}

func (c fingerprintCounter) Fingerprint() (string, error) {
	c.walks.Add(1)
	return core.SourceFingerprint(c.Source)
}

// TestOneFingerprintWalkPerAppend pins when the live pool walks the
// corpus: once to build the root and its scopes, never for a POSTed
// append (the overlay grows, the base does not), once for each watcher
// append and once for the first request after a reset (both Bump the
// base). Each scope's fingerprint is checked against one computed
// without the base's kept fingerprint: a fresh walk of the inner
// source, the generation and the overlay IDs under core.Digest's
// "append" framing, then the "filter" framing for a scope.
func TestOneFingerprintWalkPerAppend(t *testing.T) {
	for _, path := range appendPaths {
		t.Run(path.name, func(t *testing.T) {
			base, extra, _ := amdFixture(t)
			inner := path.base(t, base)
			var walks atomic.Int64
			s := New(Config{Base: fingerprintCounter{Source: inner, walks: &walks}, Live: true})
			filters := []string{"", "vendor=amd", "vendor=intel", "os=linux"}
			serveAll := func() {
				t.Helper()
				for _, f := range filters {
					if rec := get(t, s, "/v1/analyses/funnel?filter="+f); rec.Code != http.StatusOK {
						t.Fatalf("filter %q = %d: %s", f, rec.Code, rec.Body)
					}
				}
			}
			wantWalks := func(when string, want int64) {
				t.Helper()
				if got := walks.Load(); got != want {
					t.Fatalf("%s: %d walks, want %d", when, got, want)
				}
			}
			serveAll()
			wantWalks(fmt.Sprintf("building root + %d scopes", len(filters)-1), 1)
			perAppend := int64(0) // a POST leaves the base alone
			if path.name == "watch" {
				perAppend = 1 // new files in the base: AbsorbBaseGrowth bumps it
			}
			var overlay []string
			for i := 0; i < 2; i++ {
				r := *extra
				r.ID = fmt.Sprintf("walk-append-%d", i)
				if err := path.apply(s, path.land(t, inner, &r)); err != nil {
					t.Fatal(err)
				}
				if path.name == "post" {
					overlay = append(overlay, r.ID)
				}
				wantWalks(fmt.Sprintf("after append %d", i+1), 1+int64(i+1)*perAppend)
			}
			wantScopeFingerprints(t, s, inner, 2, overlay, len(filters))

			afterAppends := walks.Load()
			if _, err := s.ResetPool("test"); err != nil {
				t.Fatal(err)
			}
			wantWalks("after reset", afterAppends)
			serveAll()
			wantWalks("after reset and a rebuild of root + scopes", afterAppends+1)
			wantScopeFingerprints(t, s, inner, 3, overlay, len(filters))
		})
	}
}

// wantScopeFingerprints checks every resident engine's fingerprint and
// generation against a fresh walk of inner at generation gen with the
// given overlay run IDs, without asking the pool's base source.
func wantScopeFingerprints(t *testing.T, s *Server, inner core.Source, gen uint64, overlay []string, engines int) {
	t.Helper()
	innerFP, err := core.SourceFingerprint(inner)
	if err != nil {
		t.Fatal(err)
	}
	rootFP := core.Digest(append([]string{"append", strconv.FormatUint(gen, 10), innerFP}, overlay...)...)
	snap := s.pool.snapshot()
	if len(snap.Engines) != engines {
		t.Fatalf("pool holds %d engines, want %d", len(snap.Engines), engines)
	}
	for _, e := range snap.Engines {
		sc, err := parseScope(e.Filter)
		if err != nil {
			t.Fatal(err)
		}
		want := rootFP
		if sc.keep != nil {
			want = core.Digest("filter", sc.expr, rootFP)
		}
		if e.Fingerprint != want || e.Generation != gen {
			t.Errorf("scope %q: fingerprint %s at generation %d, want %s at %d",
				e.Filter, e.Fingerprint, e.Generation, want, gen)
		}
	}
}

// FuzzParseScope fuzzes the scope key: parsing never panics, a
// canonical form parses back to itself, and its predicate agrees with
// the raw expression's on every run of the default corpus. The
// canonical form is all that separates a scope's fingerprint from its
// root's, so two spellings that select different runs must never share
// one.
func FuzzParseScope(f *testing.F) {
	runs := defaultRuns(f)
	f.Fuzz(func(t *testing.T, expr string) {
		sc, err := parseScope(expr)
		if err != nil {
			return
		}
		again, err := parseScope(sc.expr)
		if err != nil || again.expr != sc.expr {
			t.Fatalf("canonical %q of %q reparses to %q, %v", sc.expr, expr, again.expr, err)
		}
		if sc.keep == nil {
			if sc.expr != "" {
				t.Fatalf("scope %q has no predicate", sc.expr)
			}
			return
		}
		raw, err := core.ParseFilter(expr)
		if err != nil {
			t.Fatalf("canonical %q parses but raw %q does not: %v", sc.expr, expr, err)
		}
		for _, r := range runs {
			if sc.keep(r) != raw(r) || again.keep(r) != raw(r) {
				t.Fatalf("%q and its canonical %q disagree on run %s", expr, sc.expr, r.ID)
			}
		}
	})
}
