package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
)

// reportRuns is a six-year corpus: the full report needs enough yearly
// bins for its trend tests, more than testRuns' two years.
func reportRuns(t testing.TB) []*model.Run {
	t.Helper()
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
	return runs
}

// TestStoredBodyTraced: a request served from stored bytes still has a
// serialize stage (render for the report), marked cached=true and
// taking no time; the request that rendered carries no such mark.
func TestStoredBodyTraced(t *testing.T) {
	s := New(Config{Base: core.SliceSource(reportRuns(t))})
	for _, path := range []string{"/v1/analyses/funnel", "/v1/report"} {
		for range 2 {
			if rec := get(t, s, path); rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d", path, rec.Code)
			}
		}
	}
	traces := getTraces(t, s, "/v1/traces").Traces // newest first
	for i, want := range []struct {
		span   string
		cached bool
	}{{"render", true}, {"render", false}, {"serialize", true}, {"serialize", false}} {
		sp, ok := findSpan(traces[i].Root, want.span)
		if !ok {
			t.Fatalf("trace %d (%s) lacks a %s span", i, traces[i].Root.Name, want.span)
		}
		cached, _ := attrValue(sp, "cached")
		if (cached == "true") != want.cached {
			t.Errorf("trace %d %s span: cached=%q, want cached %v", i, want.span, cached, want.cached)
		}
		if want.cached && sp.DurationNs != 0 {
			t.Errorf("trace %d cached %s span took %dns, want 0", i, want.span, sp.DurationNs)
		}
		if _, ok := attrValue(sp, "bytes"); !ok {
			t.Errorf("trace %d %s span lacks bytes", i, want.span)
		}
	}
}

// TestAuditDigestOfStoredBody: the audit record of a 200 served from
// stored bytes carries the digest of a fresh encode of the same value,
// which is also the digest of the bytes on the wire.
func TestAuditDigestOfStoredBody(t *testing.T) {
	s, audit, path := auditServer(t, Config{})
	var bodies [][]byte
	for range 2 {
		rec := get(t, s, "/v1/analyses/funnel")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		bodies = append(bodies, rec.Body.Bytes())
	}
	if err := audit.Close(); err != nil {
		t.Fatal(err)
	}

	v, err := core.New(core.WithSource(core.SliceSource(testRuns(t)))).Analysis("funnel")
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := analysis.Lookup("funnel")
	fresh, err := core.EncodeJSON(analysisResponse{Name: "funnel", Description: reg.Description, Value: v})
	if err != nil {
		t.Fatal(err)
	}
	want := obs.ResultDigest(fresh)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit log holds %d records, want 2", len(lines))
	}
	for i, line := range lines {
		var r obs.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r.ResultDigest != want {
			t.Errorf("record %d digest %s, fresh encode digests to %s", i, r.ResultDigest, want)
		}
		if got := obs.ResultDigest(bodies[i]); got != want {
			t.Errorf("response %d digests to %s, want %s", i, got, want)
		}
	}
}

// TestAppendRollsStoredBytes: after POST /v1/runs every ETag rolls. An
// analysis whose input stage gained rows serves new bytes; one whose
// input the append did not touch serves its stored bytes unchanged.
func TestAppendRollsStoredBytes(t *testing.T) {
	runs := testRuns(t)
	base, extra := runs[:len(runs)-1], runs[len(runs)-1]
	s := New(Config{Base: core.SliceSource(base), Live: true})
	paths := []string{"/v1/analyses/funnel", "/v1/analyses/table1"}
	before := map[string]*bytes.Buffer{}
	etags := map[string]string{}
	for _, path := range paths {
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		before[path], etags[path] = rec.Body, rec.Header().Get("ETag")
	}
	renders := stageCount(t, s, obs.StageSerialize)

	if rec := postRun(t, s, resultFileBytes(t, extra)); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/runs = %d: %s", rec.Code, rec.Body)
	}

	for _, path := range paths {
		rec := get(t, s, path, "If-None-Match", etags[path])
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s after append = %d", path, rec.Code)
		}
		if rec.Header().Get("ETag") == etags[path] {
			t.Errorf("%s: ETag did not roll across the append", path)
		}
		same := bytes.Equal(rec.Body.Bytes(), before[path].Bytes())
		switch path {
		case "/v1/analyses/funnel": // reads the raw set, which grew
			if same {
				t.Errorf("%s: served the pre-append bytes", path)
			}
			if got := funnelRaw(t, rec.Body.Bytes()); got != len(base)+1 {
				t.Errorf("%s: Raw = %d, want %d", path, got, len(base)+1)
			}
		default: // reads no corpus stage
			if !same {
				t.Errorf("%s: bytes changed though its input did not", path)
			}
		}
	}
	if got := stageCount(t, s, obs.StageSerialize) - renders; got != 1 {
		t.Errorf("%d renders after the append, want 1 (funnel only)", got)
	}
}

// TestConcurrentAppendStoredBytes is the race pin for stored bytes:
// readers of an analysis and of the report run against appends, and an
// ETag is never paired with bytes from another generation. Every
// append changes both resources, so each must map ETags to bodies one
// to one: a stale body under a new ETag, or a new body under an old
// one, breaks the pairing.
func TestConcurrentAppendStoredBytes(t *testing.T) {
	runs := reportRuns(t)
	base := runs[:len(runs)-1]
	tmpl := *runs[len(runs)-1]
	s := New(Config{Base: core.SliceSource(base), Live: true, TraceBufferSize: -1})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}

	paths := []string{"/v1/analyses/funnel", "/v1/report"}
	const appends = 12
	type pair struct{ etag, body string }
	seen := make([][]pair, len(paths))
	reads := make([]atomic.Int64, len(paths))
	var failed atomic.Bool
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s, path)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body)
					failed.Store(true) // releases settle
					return
				}
				seen[i] = append(seen[i], pair{rec.Header().Get("ETag"), rec.Body.String()})
				reads[i].Add(1)
			}
		}()
	}
	// Between appends, wait for every reader to finish two more reads,
	// so at least one of them started after the append: each generation
	// is then served at least once, under some interleaving.
	settle := func() {
		for i := range reads {
			for target := reads[i].Load() + 2; reads[i].Load() < target && !failed.Load(); {
				runtime.Gosched()
			}
		}
	}
	for n := range appends {
		settle()
		r := tmpl
		r.ID = fmt.Sprintf("stored-append-%d", n)
		if _, err := s.AppendRuns(&r); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	close(stop)
	wg.Wait()

	for i, path := range paths {
		bodyOf, etagOf := map[string]string{}, map[string]string{}
		for _, p := range seen[i] {
			if b, ok := bodyOf[p.etag]; ok && b != p.body {
				t.Fatalf("%s: one ETag served two bodies", path)
			}
			if e, ok := etagOf[p.body]; ok && e != p.etag {
				t.Fatalf("%s: one body served under two ETags", path)
			}
			bodyOf[p.etag], etagOf[p.body] = p.body, p.etag
		}
		if len(bodyOf) != appends+1 {
			t.Errorf("%s: %d distinct ETags served, want one per generation (%d)", path, len(bodyOf), appends+1)
		}
	}
	if got := funnelRaw(t, get(t, s, "/v1/analyses/funnel").Body.Bytes()); got != len(base)+appends {
		t.Errorf("funnel Raw = %d after %d appends, want %d", got, appends, len(base)+appends)
	}
}
