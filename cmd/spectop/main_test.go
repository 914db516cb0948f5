package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// newServer serves a small two-year corpus through serve.New; the last
// run is held back so a live server can append it.
func newServer(t *testing.T, live, audit bool) (*httptest.Server, *serve.Server) {
	t.Helper()
	runs, err := core.GenerateCorpus(synth.Options{
		Seed: 7,
		Plan: []synth.YearPlan{
			{Year: 2009, Parsed: 12, AMDShare: 0.25, LinuxShare: 0.02, TwoSocketShare: 0.7},
			{Year: 2019, Parsed: 12, AMDShare: 0.30, LinuxShare: 0.30, TwoSocketShare: 0.7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Base: core.SliceSource(runs[:len(runs)-1]), Live: live}
	if audit {
		log, err := obs.OpenAuditLog(filepath.Join(t.TempDir(), "audit.log"), obs.AuditOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		cfg.Audit = log
	}
	s := serve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	if live {
		if _, err := s.AppendRuns(runs[len(runs)-1]); err != nil {
			t.Fatal(err)
		}
	}
	return ts, s
}

// drive sends cold, warm, 304 and 404 traffic.
func drive(t *testing.T, base string) {
	t.Helper()
	do := func(path, etag string, want int) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		return resp
	}
	cold := do("/v1/analyses/funnel", "", http.StatusOK)
	do("/v1/analyses/funnel", "", http.StatusOK)
	do("/v1/analyses/funnel", cold.Header.Get("ETag"), http.StatusNotModified)
	do("/v1/analyses/nope", "", http.StatusNotFound)
}

func fetchRender(t *testing.T, base string) (*snapshot, string) {
	t.Helper()
	snap, err := fetch(&http.Client{Timeout: 10 * time.Second}, base)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	render(&out, base, snap)
	return snap, out.String()
}

// pageHistogram reads one stage's histogram off the raw exposition in
// page order, pairing the bucket lines with the collector's own bucket
// bounds (those of an empty obs.Histogram) instead of parsing le
// labels, so it shares no code with stageHistogram.
func pageHistogram(t *testing.T, page, stage string) obs.HistogramSnapshot {
	t.Helper()
	var empty obs.Histogram
	h := obs.HistogramSnapshot{Buckets: empty.Snapshot().Buckets}
	i := 0
	for _, line := range strings.Split(page, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, val := line[:sp], line[sp+1:]
		switch {
		case strings.HasPrefix(series, `specserve_stage_duration_seconds_bucket{stage="`+stage+`",`):
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil || i >= len(h.Buckets) {
				t.Fatalf("bucket line %q", line)
			}
			h.Buckets[i].Cumulative = v
			i++
		case series == `specserve_stage_duration_seconds_count{stage="`+stage+`"}`:
			h.Count, _ = strconv.ParseUint(val, 10, 64)
		case series == `specserve_stage_duration_seconds_sum{stage="`+stage+`"}`:
			sec, _ := strconv.ParseFloat(val, 64)
			h.SumNs = secondsToNs(sec)
		}
	}
	if i != len(h.Buckets) {
		t.Fatalf("stage %s: %d bucket lines, want %d", stage, i, len(h.Buckets))
	}
	return h
}

func stageRow(stage string, h obs.HistogramSnapshot) string {
	return fmt.Sprintf("%-14s %8d %10s %10s %10s\n", stage, h.Count,
		ms(h.QuantileNs(0.50)), ms(h.QuantileNs(0.95)), ms(h.QuantileNs(0.99)))
}

// TestFetchRenderLiveAudit: against a live, audited specserve, spectop
// prints one row per observed stage whose count and percentiles are
// the server histogram's, plus the live, audit and warm-ring lines.
func TestFetchRenderLiveAudit(t *testing.T) {
	ts, _ := newServer(t, true, true)
	drive(t, ts.URL)
	snap, out := fetchRender(t, ts.URL)

	// /metrics was fetched first, so it counts the four driven
	// requests and not itself.
	if !strings.Contains(out, "requests   total 4        304 1      4xx 1      5xx 0 ") {
		t.Errorf("requests line wrong:\n%s", out)
	}
	if !strings.Contains(out, "live       generation 1      appends 1      appended runs 1\n") {
		t.Errorf("live line missing:\n%s", out)
	}
	if !strings.Contains(out, "\naudit      records ") {
		t.Errorf("audit line missing:\n%s", out)
	}
	if !strings.Contains(out, "\nring:warm ") {
		t.Errorf("warm memo-ring row missing:\n%s", out)
	}
	if !strings.Contains(out, "\n(all) ") {
		t.Errorf("pool table lacks the root scope:\n%s", out)
	}

	// The page the rows were computed from: re-fetch it raw. Stage
	// histograms move only on requests that queue or compute, and the
	// /metrics and /v1/pool polls add queue_wait samples, so compare
	// the event-fed stages on this page and check queue_wait's count
	// separately.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := map[string]uint64{
		obs.StageEngineBuild: 1, obs.StageIngest: 1, obs.StageCompute: 1, obs.StageSerialize: 1,
	}
	for stage, n := range wantCounts {
		h := pageHistogram(t, string(page), stage)
		if h.Count != n {
			t.Errorf("stage %s count = %d, want %d", stage, h.Count, n)
		}
		if row := stageRow(stage, h); !strings.Contains(out, row) {
			t.Errorf("stage row %q missing:\n%s", row, out)
		}
	}
	if h, ok := stageHistogram(snap.metrics, obs.StageQueueWait); !ok || h.Count > 4 {
		t.Errorf("queue_wait = %+v (present %v), want at most the 4 driven requests", h, ok)
	}
}

// TestRenderPlanesOff: a static server without an audit log prints
// neither the live nor the audit line.
func TestRenderPlanesOff(t *testing.T) {
	ts, _ := newServer(t, false, false)
	drive(t, ts.URL)
	_, out := fetchRender(t, ts.URL)
	if strings.Contains(out, "\nlive ") || strings.Contains(out, "\naudit ") {
		t.Errorf("disabled planes rendered:\n%s", out)
	}
	if !strings.Contains(out, "\ncompute ") {
		t.Errorf("compute stage row missing:\n%s", out)
	}
}

// TestStageRowsMatchCollector pins the round trip exposition →
// buckets → percentiles against a collector whose observations the
// test mirrors: every stage rebuilds to the collector's exact
// snapshot, and its row prints that snapshot's QuantileNs.
func TestStageRowsMatchCollector(t *testing.T) {
	c := obs.NewCollector()
	want := map[string]*obs.Histogram{}
	for _, stage := range obs.Stages {
		want[stage] = &obs.Histogram{}
	}
	// Spread over every bucket, the +Inf overflow included.
	for i, ns := range []int64{900, 3_000, 50_000, 700_000, 2_000_000, 9_000_000, 40_000_000, 300_000_000, 2_000_000_000, 9_000_000_000} {
		c.ObserveRequest(&obs.RequestMetrics{Analysis: "fig3", Status: 200, QueueWaitNs: ns, SerializeNs: ns / 2, TotalNs: ns})
		want[obs.StageQueueWait].Observe(time.Duration(ns))
		want[obs.StageSerialize].Observe(time.Duration(ns / 2))
		c.ObserveCompute(ns * 3)
		want[obs.StageCompute].Observe(time.Duration(ns * 3))
		if i%3 == 0 {
			c.ObserveBuild(ns)
			want[obs.StageEngineBuild].Observe(time.Duration(ns))
		}
	}
	var page bytes.Buffer
	c.WritePrometheus(&page, obs.ServerGauges{})
	mx, err := parseMetrics(&page)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	render(&out, "test", &snapshot{metrics: mx})
	for _, stage := range obs.Stages {
		exp := want[stage].Snapshot()
		got, ok := stageHistogram(mx, stage)
		if exp.Count == 0 {
			if ok || strings.Contains(out.String(), "\n"+stage+" ") {
				t.Errorf("stage %s has no observations but was rebuilt or rendered", stage)
			}
			continue
		}
		if !ok || !reflect.DeepEqual(got, exp) {
			t.Errorf("stage %s rebuilt as %+v, want %+v", stage, got, exp)
		}
		if row := stageRow(stage, exp); !strings.Contains(out.String(), row) {
			t.Errorf("stage row %q missing:\n%s", row, out.String())
		}
	}
}

// TestFetchErrors: spectop reports a failure of either surface instead
// of rendering a partial snapshot.
func TestFetchErrors(t *testing.T) {
	for _, tc := range []struct {
		name        string
		metrics     int
		pool        int
		poolBody    string
		errContains string
	}{
		{"metrics down", http.StatusInternalServerError, http.StatusOK, `{"capacity":1,"engines":[]}`, "/metrics"},
		{"pool down", http.StatusOK, http.StatusServiceUnavailable, "", "/v1/pool"},
		{"pool garbage", http.StatusOK, http.StatusOK, "not json", "decode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.metrics)
				io.WriteString(w, "specserve_requests_total 1\n")
			})
			mux.HandleFunc("GET /v1/pool", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.pool)
				io.WriteString(w, tc.poolBody)
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			_, err := fetch(&http.Client{Timeout: 10 * time.Second}, ts.URL)
			if err == nil || !strings.Contains(err.Error(), tc.errContains) {
				t.Errorf("fetch error = %v, want one naming %q", err, tc.errContains)
			}
		})
	}
}

// FuzzParseMetrics: parseMetrics, the bucket rebuild and render never
// panic on any page, and a page rendered by WritePrometheus from
// fuzzed observations parses back series for series.
func FuzzParseMetrics(f *testing.F) {
	f.Fuzz(func(t *testing.T, page []byte, label string, durs []byte) {
		if mx, err := parseMetrics(bytes.NewReader(page)); err == nil {
			for _, stage := range obs.Stages {
				stageHistogram(mx, stage)
			}
			render(io.Discard, "fuzz", &snapshot{metrics: mx})
		}

		c := obs.NewCollector()
		want := map[string]*obs.Histogram{}
		for _, stage := range obs.Stages {
			want[stage] = &obs.Histogram{}
		}
		for i := 0; i+8 <= len(durs) && i < 8*64; i += 8 {
			ns := int64(binary.LittleEndian.Uint64(durs[i:]) % (1 << 34))
			stage := obs.Stages[(i/8)%len(obs.Stages)]
			switch stage {
			case obs.StageQueueWait:
				c.ObserveRequest(&obs.RequestMetrics{Analysis: label, Status: 200, QueueWaitNs: ns, TotalNs: ns})
				if ns == 0 {
					continue
				}
			case obs.StageSerialize:
				c.ObserveRequest(&obs.RequestMetrics{Analysis: label, Status: 200, SerializeNs: ns, TotalNs: ns})
				if ns == 0 {
					continue
				}
			case obs.StageEngineBuild:
				c.ObserveBuild(ns)
			case obs.StageIngest:
				c.ObserveIngest(ns)
			case obs.StageCompute:
				c.ObserveCompute(ns)
			}
			want[stage].Observe(time.Duration(ns))
		}
		g := obs.ServerGauges{
			Requests: int64(len(durs)), PoolCapacity: len(label), Analyses: len(page),
			MemoRings:   []obs.MemoRingGauge{{Ring: label, Hits: int64(len(durs))}},
			LiveEnabled: true, AuditEnabled: true,
		}
		var buf bytes.Buffer
		c.WritePrometheus(&buf, g)
		written := buf.String()
		mx, err := parseMetrics(strings.NewReader(written))
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		for _, line := range strings.Split(written, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				samples++
			}
		}
		if samples != len(mx) {
			t.Fatalf("%d series written, %d parsed back", samples, len(mx))
		}
		for series, v := range map[string]int{
			"specserve_requests_total":      len(durs),
			"specserve_pool_capacity":       len(label),
			"specserve_registered_analyses": len(page),
		} {
			if mx[series] != float64(v) {
				t.Errorf("%s = %v, want %d", series, mx[series], v)
			}
		}
		for _, stage := range obs.Stages {
			exp := want[stage].Snapshot()
			got, ok := stageHistogram(mx, stage)
			if ok != (exp.Count > 0) || ok && !reflect.DeepEqual(got, exp) {
				t.Errorf("stage %s rebuilt as %+v (present %v), want %+v", stage, got, ok, exp)
			}
		}
	})
}
