package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
)

// scrape renders the exposition in-process and parses it into series
// → value. It is not a request, so unlike GET /metrics it moves no
// counter.
func scrape(t testing.TB, s *Server) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	s.metrics.WritePrometheus(&buf, s.gauges())
	return parseExposition(t, buf.String())
}

// parseExposition parses a text exposition into series → value, keys
// verbatim with their label sets, failing on any line that is neither
// a comment nor a series and a value.
func parseExposition(t testing.TB, page string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		m[line[:i]] = v
	}
	return m
}

// stageCount is the number of observations in one stage histogram.
func stageCount(t testing.TB, s *Server, stage string) int64 {
	t.Helper()
	return int64(scrape(t, s)[`specserve_stage_duration_seconds_count{stage="`+stage+`"}`])
}

// TestMetricsEndpoint: /metrics serves the Prometheus text exposition —
// the serving counters plus per-stage and per-analysis histograms —
// after cold, warm, and 304 traffic has populated them.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	first := get(t, s, "/v1/analyses/funnel") // cold: build + ingest + compute
	if first.Code != http.StatusOK {
		t.Fatalf("cold status = %d", first.Code)
	}
	get(t, s, "/v1/analyses/funnel") // warm: memoized
	if rec := get(t, s, "/v1/analyses/funnel", "If-None-Match", first.Header().Get("ETag")); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d", rec.Code)
	}
	get(t, s, "/v1/analyses/nope") // one 404 into the error counter

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	// Counters carry the values the traffic above produced. Self-count
	// rule: the /metrics request itself is still in flight while its
	// page is rendered, so requests_total reads 4, not 5.
	for _, want := range []string{
		"# TYPE specserve_requests_total counter",
		"specserve_requests_total 4\n",
		"specserve_not_modified_total 1\n",
		"specserve_client_errors_total 1\n",
		"specserve_engine_builds_total 1\n",
		"specserve_ingests_total 1\n",
		"specserve_computes_total 1\n",
		"specserve_pool_engines 1\n",
		"# TYPE specserve_stage_duration_seconds histogram",
		`specserve_stage_duration_seconds_bucket{stage="queue_wait",le="+Inf"}`,
		`specserve_stage_duration_seconds_bucket{stage="compute",le="+Inf"} 1` + "\n",
		`specserve_stage_duration_seconds_count{stage="engine_build"} 1` + "\n",
		"# TYPE specserve_request_duration_seconds histogram",
		`specserve_request_duration_seconds_bucket{analysis="funnel",le="+Inf"}`,
		`specserve_request_duration_seconds_count{analysis="funnel"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// No audit log configured: the audit metric must not appear (a 0
	// would read as "auditing, empty chain").
	if strings.Contains(body, "specserve_audit_records_total") {
		t.Error("audit metric exposed without an audit log")
	}

	// The next page counts the previous /metrics request, not itself.
	if got := parseExposition(t, get(t, s, "/metrics").Body.String())["specserve_requests_total"]; got != 5 {
		t.Errorf("back-to-back requests_total = %v, want 5", got)
	}
}

// TestStatsObservability: after one cold request the exposition carries
// a non-negative uptime and the stage/analysis latency breakdowns, and
// no audit series without an audit log.
func TestStatsObservability(t *testing.T) {
	s, _ := testServer(t, Config{})
	if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != http.StatusOK {
		t.Fatalf("cold status = %d", rec.Code)
	}
	mx := scrape(t, s)
	if up := mx["specserve_uptime_seconds"]; up < 0 {
		t.Errorf("uptime %v negative", up)
	}
	// One completed request: queue_wait and serialize observed once per
	// request; engine_build, ingest, and compute once per actual event.
	for _, stage := range obs.Stages {
		series := `specserve_stage_duration_seconds_count{stage="` + stage + `"}`
		if got, ok := mx[series]; !ok || got != 1 {
			t.Errorf("stage %q count = %v (present %v), want 1", stage, got, ok)
		}
		if sum := mx[`specserve_stage_duration_seconds_sum{stage="`+stage+`"}`]; sum < 0 {
			t.Errorf("stage %q has a negative duration sum %v", stage, sum)
		}
	}
	if got := mx[`specserve_request_duration_seconds_count{analysis="funnel"}`]; got != 1 {
		t.Errorf("funnel latency count = %v, want 1", got)
	}
	if sum := mx[`specserve_request_duration_seconds_sum{analysis="funnel"}`]; sum <= 0 {
		t.Errorf("funnel latency sum = %v, want > 0", sum)
	}
	if _, ok := mx["specserve_audit_records_total"]; ok {
		t.Error("audit series present without an audit log")
	}
}

// auditServer builds a Server auditing to a fresh temp-dir log and
// returns the log path.
func auditServer(t *testing.T, cfg Config) (*Server, *obs.AuditLog, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "audit.log")
	audit, err := obs.OpenAuditLog(path, obs.AuditOptions{FlushRecords: 2, FlushInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = audit
	s, _ := testServer(t, cfg)
	return s, audit, path
}

// TestAuditIntegration is the audit acceptance test: attributable 200s
// (analyses, the report) chain records carrying the scope fingerprint,
// canonical params, and a digest of the exact served bytes; nothing
// else — listings, health, pool, metrics, 304s, errors — is ever appended; and
// the resulting file verifies as an unbroken chain until a byte is
// flipped.
func TestAuditIntegration(t *testing.T) {
	// The report section needs enough yearly bins for its trend tests, so
	// this test runs over a wider corpus than the two-year default.
	runs, err := core.GenerateCorpus(synth.Options{
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
	s, audit, path := auditServer(t, Config{Base: core.SliceSource(runs)})

	funnel := get(t, s, "/v1/analyses/funnel")
	if funnel.Code != http.StatusOK {
		t.Fatalf("funnel status = %d", funnel.Code)
	}
	clusters := get(t, s, "/v1/analyses/clusters?k=3&filter=vendor%3DAMD")
	if clusters.Code != http.StatusOK {
		t.Fatalf("clusters status = %d: %s", clusters.Code, clusters.Body)
	}
	report := get(t, s, "/v1/report")
	if report.Code != http.StatusOK {
		t.Fatalf("report status = %d", report.Code)
	}
	// None of these serve attributable corpus-derived bytes; none may
	// append a record.
	get(t, s, "/healthz")
	get(t, s, "/v1/analyses")
	get(t, s, "/v1/pool")
	if rec := get(t, s, "/v1/analyses/funnel", "If-None-Match", funnel.Header().Get("ETag")); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d", rec.Code)
	}

	// /metrics exposes the chain length once auditing is on.
	if body := get(t, s, "/metrics").Body.String(); !strings.Contains(body, "specserve_audit_records_total") {
		t.Error("exposition missing specserve_audit_records_total with auditing on")
	}

	// Graceful drain: every enqueued record reaches the file.
	if err := audit.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, verr := obs.VerifyChain(f)
	f.Close()
	if verr != nil {
		t.Fatalf("chain verification failed: %v", verr)
	}
	if res.Records != 3 {
		t.Fatalf("chained %d records, want 3 (funnel, clusters, report)", res.Records)
	}

	// The records carry the provenance a verifier needs: which corpus
	// state (fingerprint), which analysis under which canonical params
	// and scope, and the digest of the exact bytes served.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.Record
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r obs.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if recs[0].Analysis != "funnel" || recs[0].Params != "" || recs[0].Filter != "" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Analysis != "clusters" || recs[1].Params != "k=3" || recs[1].Filter != "vendor=amd" {
		t.Errorf("record 1 = %+v", recs[1])
	}
	if recs[2].Analysis != "report" || recs[2].Params != "" {
		t.Errorf("record 2 = %+v", recs[2])
	}
	for i, rec := range recs {
		if rec.Fingerprint == "" {
			t.Errorf("record %d has no fingerprint", i)
		}
		if _, err := time.Parse(time.RFC3339Nano, rec.Time); err != nil {
			t.Errorf("record %d time %q: %v", i, rec.Time, err)
		}
	}
	// The digest is over the exact served body bytes — recomputable by
	// anyone holding the response.
	if got, want := recs[0].ResultDigest, obs.ResultDigest(funnel.Body.Bytes()); got != want {
		t.Errorf("funnel digest %s, want %s (served-bytes digest)", got, want)
	}
	if got, want := recs[2].ResultDigest, obs.ResultDigest(report.Body.Bytes()); got != want {
		t.Errorf("report digest %s, want %s", got, want)
	}
	// The scoped record's fingerprint differs from the unfiltered one:
	// provenance pins the slice, not just the base corpus.
	if recs[0].Fingerprint == recs[1].Fingerprint {
		t.Error("filtered and unfiltered scopes share a fingerprint")
	}

	// Flip one byte of the middle record: verification must fail and
	// name it.
	mutated := append([]byte(nil), data...)
	idx := strings.Index(string(mutated), `"analysis":"clusters"`)
	if idx < 0 {
		t.Fatal("mutation target not found")
	}
	mutated[idx+len(`"analysis":"c`)] ^= 0x01
	if _, verr := obs.VerifyChain(strings.NewReader(string(mutated))); verr == nil {
		t.Error("mutated chain verified")
	} else if ce := new(obs.ChainError); !strings.Contains(verr.Error(), "record 1") || !asChainError(verr, ce) || ce.Index != 1 {
		t.Errorf("mutation blamed: %v, want record 1", verr)
	}
}

func asChainError(err error, target *obs.ChainError) bool {
	ce, ok := err.(*obs.ChainError)
	if ok {
		*target = *ce
	}
	return ok
}

// TestErrorsCountedNotAudited pins the satellite invariant: error
// responses land in the metrics counters but never in the audit chain —
// a 400, a 404, and a gate 503 leave the log empty while the counters
// move.
func TestErrorsCountedNotAudited(t *testing.T) {
	gateEnter, gateRelease := registerGateProbe()
	s, audit, path := auditServer(t, Config{MaxInFlight: 1})

	if rec := get(t, s, "/v1/analyses/clusters?k=abc"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad param status = %d", rec.Code)
	}
	if rec := get(t, s, "/v1/analyses/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown analysis status = %d", rec.Code)
	}

	// A gate 503 on an analysis path: the request never reaches the
	// handler, so nothing attributable was served.
	done := make(chan int, 1)
	go func() {
		done <- get(t, s, "/v1/analyses/serve_gate_probe").Code
	}()
	<-gateEnter
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/analyses/funnel", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gated status = %d, want 503", rec.Code)
	}
	close(gateRelease)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked probe finished with %d", code)
	}

	st := s.gauges()
	if st.ClientErrors != 2 {
		t.Errorf("client_errors = %d, want 2", st.ClientErrors)
	}
	if st.RejectedBusy != 1 {
		t.Errorf("rejected_busy = %d, want 1", st.RejectedBusy)
	}
	if err := audit.Close(); err != nil {
		t.Fatal(err)
	}
	// Exactly one record: the probe's eventual 200. The 400, 404, and
	// 503 appended nothing.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, verr := obs.VerifyChain(f)
	if verr != nil {
		t.Fatal(verr)
	}
	if res.Records != 1 {
		t.Errorf("chained %d records, want 1 (only the probe's 200)", res.Records)
	}
}

// TestAuditSurvivesRestart: a server over a reopened log continues the
// chain — records from both processes verify as one sequence.
func TestAuditSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	for i := 0; i < 2; i++ {
		audit, err := obs.OpenAuditLog(path, obs.AuditOptions{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		s, _ := testServer(t, Config{Audit: audit})
		if rec := get(t, s, "/v1/analyses/funnel"); rec.Code != http.StatusOK {
			t.Fatalf("run %d status = %d", i, rec.Code)
		}
		if err := audit.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, verr := obs.VerifyChain(f)
	if verr != nil {
		t.Fatalf("restarted chain broken: %v", verr)
	}
	if res.Records != 2 {
		t.Errorf("chained %d records across restarts, want 2", res.Records)
	}
}
