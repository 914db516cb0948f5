package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/analysis"
	_ "repro/internal/cluster" // registers the clustering analyses served here
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/trace"
	"repro/internal/parser"
	"repro/internal/synth"
)

// Defaults for the pool and concurrency bounds (Config zero values).
const (
	DefaultPoolSize    = 32
	DefaultMaxInFlight = 64
	// DefaultTraceBuffer bounds the resident completed traces served
	// by /v1/traces when Config.TraceBufferSize is zero.
	DefaultTraceBuffer = 256
)

// Config configures a Server.
type Config struct {
	// Base is the unfiltered corpus source every requested scope slices
	// from (nil = the default synthetic corpus, via core.New).
	Base core.Source
	// Workers bounds each engine's parallelism (0 = GOMAXPROCS).
	Workers int
	// PoolSize bounds the resident scope engines; the least recently
	// served scope past the bound is evicted (<=0 = DefaultPoolSize).
	PoolSize int
	// MaxInFlight bounds concurrently served requests (<=0 =
	// DefaultMaxInFlight).
	MaxInFlight int
	// Events, when non-nil, is the server's log (see
	// internal/obs/evlog): one "request" event per response carrying
	// trace_id, status_class, and etag_revalidated, plus the pool's
	// build and evict events (and audit flushes when the audit log is
	// wired to the same logger). Nil logs nothing.
	Events *evlog.Logger
	// Audit, when non-nil, receives one hash-chained provenance record
	// per attributable 200 — analysis and report responses, whose bytes
	// derive from a corpus state. Listings, health, metrics, errors, and
	// 304s (no bytes served) are never appended. The server does not
	// own the log's lifecycle; the caller closes it after shutdown.
	Audit *obs.AuditLog
	// TraceBufferSize bounds the completed request traces retained for
	// GET /v1/traces (0 = DefaultTraceBuffer; negative disables
	// tracing entirely — no per-request trace, no /v1/traces route).
	TraceBufferSize int
	// Pprof mounts GET /debug/pprof/* for loopback clients. Off by
	// default: profiles expose memory contents.
	Pprof bool
	// Live enables the append plane: Base is wrapped in a
	// core.AppendSource, POST /v1/runs accepts one result file per
	// request, AppendRuns / AbsorbBaseGrowth / ResetPool become
	// operational, and the generation + append counters join /metrics.
	// Off by default — a static corpus needs none of it.
	Live bool
}

// Server serves the analysis registry over HTTP. It is an http.Handler;
// wire it into an http.Server (see cmd/specserve) or hit it directly in
// tests via httptest.
type Server struct {
	cfg      Config
	pool     *enginePool
	gate     chan struct{}
	handler  http.Handler
	started  time.Time
	counters counters
	watch    watchHealth
	metrics  *obs.Collector
	audit    *obs.AuditLog
	traces   *trace.Ring // nil when tracing is disabled
	runtime  obs.RuntimeSampler
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	if cfg.Base == nil {
		cfg.Base = core.SynthSource{Options: synth.DefaultOptions()}
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	var live *core.AppendSource
	if cfg.Live {
		live = core.NewAppendSource(cfg.Base)
		cfg.Base = live
	}
	metrics := obs.NewCollector()
	s := &Server{
		cfg:     cfg,
		pool:    newEnginePool(cfg.Base, live, cfg.Workers, cfg.PoolSize, metrics, cfg.Events),
		gate:    make(chan struct{}, cfg.MaxInFlight),
		started: time.Now(),
		metrics: metrics,
		audit:   cfg.Audit,
	}
	if cfg.TraceBufferSize >= 0 {
		size := cfg.TraceBufferSize
		if size == 0 {
			size = DefaultTraceBuffer
		}
		s.traces = trace.NewRing(size)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/analyses", s.handleList)
	mux.HandleFunc("GET /v1/analyses/{name}", s.handleAnalysis)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/pool", s.handlePool)
	if cfg.Live {
		mux.HandleFunc("POST /v1/runs", s.handleAppendRun)
	}
	if s.traces != nil {
		mux.HandleFunc("GET /v1/traces", s.handleTraces)
	}
	if cfg.Pprof {
		mountPprof(mux)
	}
	s.handler = s.withMetrics(s.withGate(mux))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Warm pre-builds the root engine and ingests its dataset, so no
// request after startup streams the corpus (filter scopes are views of
// the root). It ingests under the entry's read lock like
// any request, so on a live pool no absorb interleaves with it.
func (s *Server) Warm() error {
	ent, err := s.pool.get(scope{}, "")
	if err != nil {
		return err
	}
	ent.live.RLock()
	defer ent.live.RUnlock()
	_, err = ent.eng.Dataset()
	return err
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// writeJSON writes v indented, with the content type set. The encode
// happens into a buffer first so a marshal failure can still become a
// clean 500 instead of a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := core.EncodeJSON(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("encode response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the Prometheus text exposition: the serving
// counters and gauges, the per-stage and per-analysis histograms, and
// the runtime section. Self-count rule: the page covers only requests
// that finished before it was rendered, so the /metrics request that
// carries it is not yet in specserve_requests_total.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.metrics.WritePrometheus(&buf, s.gauges())
	obs.WriteRuntimePrometheus(&buf, s.runtime.Sample())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// appendAudit chains one provenance record for a served 200, carrying
// the precomputed body digest (the handler also stamps it onto the
// trace, so it is hashed once) and the request's trace id ("" with
// tracing off). The append is a channel send — the batching writer
// does the file I/O off the request path.
func (s *Server) appendAudit(fingerprint, analysisName, params, filter, digest, traceID string) {
	if s.audit == nil {
		return
	}
	s.audit.Append(obs.Entry{
		Time:         time.Now(),
		Fingerprint:  fingerprint,
		Analysis:     analysisName,
		Params:       params,
		Filter:       filter,
		ResultDigest: digest,
		TraceID:      traceID,
	})
}

// paramInfo is the wire form of one declared parameter, echoed by the
// registry listing and by 400 responses so a client that sent a bad
// request learns the schema without a second round trip.
type paramInfo struct {
	Name        string   `json:"name"`
	Kind        string   `json:"kind"`
	Default     string   `json:"default,omitempty"`
	Enum        []string `json:"enum,omitempty"`
	Description string   `json:"description,omitempty"`
}

func schemaInfo(s analysis.Schema) []paramInfo {
	if len(s) == 0 {
		return nil
	}
	info := make([]paramInfo, len(s))
	for i, p := range s {
		info[i] = paramInfo{
			Name:        p.Name,
			Kind:        p.Kind.String(),
			Default:     p.DefaultString(),
			Enum:        p.Enum,
			Description: p.Description,
		}
	}
	return info
}

// paramErrorBody is the 400 envelope for parameter failures: the error
// plus the analysis's declared schema.
type paramErrorBody struct {
	Error  string      `json:"error"`
	Schema []paramInfo `json:"schema"`
}

func paramError(w http.ResponseWriter, reg analysis.Registration, err error) {
	writeJSON(w, http.StatusBadRequest, paramErrorBody{
		Error:  err.Error(),
		Schema: schemaInfo(reg.Params),
	})
}

// listEntry is one row of the registry listing: the registry row plus
// the declared parameter schema (absent for parameterless analyses).
type listEntry struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Params      []paramInfo `json:"params,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := analysis.Names()
	entries := make([]listEntry, 0, len(names))
	etagParts := make([]string, 0, 2*len(names)+1)
	etagParts = append(etagParts, "list")
	for _, name := range names {
		reg, _ := analysis.Lookup(name)
		entries = append(entries, listEntry{
			Name:        name,
			Description: reg.Description,
			Params:      schemaInfo(reg.Params),
		})
		etagParts = append(etagParts, name, reg.Description)
		for _, p := range reg.Params {
			// The schema is part of the listing's identity: a changed
			// default, description, or domain — anything the body
			// serves — must invalidate cached listings.
			etagParts = append(etagParts, fmt.Sprintf("param:%s:%s:%s:%v:%s",
				p.Name, p.Kind, p.DefaultString(), p.Enum, p.Description))
		}
	}
	etag := etagFor(etagParts...)
	writeValidator(w, etag)
	if notModified(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, entries)
}

// analysisResponse is the body of /v1/analyses/{name}: the registry
// row plus the scope and canonical parameters it was computed over, so
// consumers need no second lookup. Params is the canonical non-default
// string — absent for a default request, keeping parameterless
// responses byte-compatible with the pre-params server.
type analysisResponse struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Filter      string `json:"filter,omitempty"`
	Params      string `json:"params,omitempty"`
	Value       any    `json:"value"`
}

// storedBody is a rendered 200 body, held by the engine next to the
// value it encodes (AnalysisRendered, ReportRendered), with the digest
// the audit record and the trace carry, so a hit neither re-encodes nor
// re-hashes.
type storedBody struct {
	body   []byte
	digest string
}

func newStoredBody(body []byte) *storedBody {
	return &storedBody{body: body, digest: obs.ResultDigest(body)}
}

// rawParams collects every query key except the reserved "filter" as a
// raw parameter assignment for the schema to resolve (first value wins,
// matching url.Values.Get).
func rawParams(q url.Values) map[string]string {
	raw := make(map[string]string, len(q))
	for key, vals := range q {
		if key == "filter" || len(vals) == 0 {
			continue
		}
		raw[key] = vals[0]
	}
	return raw
}

func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	reg, ok := analysis.Lookup(name)
	if !ok {
		// 404 before touching the pool: a typo'd name must not build an
		// engine or ingest anything.
		err := &core.UnknownAnalysisError{Name: name, Available: analysis.SortedNames()}
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	q := r.URL.Query()
	sc, err := parseScope(q.Get("filter"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve query parameters against the declared schema before
	// touching the pool: an unknown key or a failed validation is a 400
	// carrying the schema, and must not build an engine or ingest
	// anything. The param-less hot path (including 304 revalidations)
	// skips the resolve entirely — the bag was resolved once, at
	// registration.
	params := reg.DefaultParams()
	if raw := rawParams(q); len(raw) > 0 {
		var err error
		if params, err = reg.Params.Resolve(raw); err != nil {
			paramError(w, reg, err)
			return
		}
	}
	rec := requestRecord(r)
	rec.analysis, rec.params, rec.filter = name, params.Canonical(), sc.expr
	start := time.Now()
	ent, err := s.pool.get(sc, rec.traceID())
	rec.add("build", start, time.Now())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The entry's read lock spans fingerprint read through audit: on a
	// live pool an absorb cannot land between the ETag and the bytes it
	// validates, so a response never carries an ETag older (or newer)
	// than the data it serves. The lock is released before the network
	// write — a slow client must not stall the append plane.
	ent.live.RLock()
	fingerprint := ent.fingerprint
	// The canonical param string joins the validator identity, so
	// ?k=3 and ?k=5 on one scope revalidate independently while two
	// spellings of the same parameterization share one ETag.
	etag := etagFor(fingerprint, "analysis", name, sc.expr, rec.params)
	rec.etag = etag
	if notModified(r, etag) {
		ent.live.RUnlock()
		writeValidator(w, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// The render func runs once per memo entry, on whichever request
	// first asks after the compute. Every envelope field comes from the
	// memo key (name, canonical params) or the engine's scope (filter),
	// so the stored bytes are right for every request that hits them.
	var renderStart, renderEnd time.Time
	out, err := ent.eng.AnalysisRendered(core.Request{Name: name, Params: params, Owner: rec},
		func(v any) (any, error) {
			renderStart = time.Now()
			body, err := core.EncodeJSON(analysisResponse{
				Name:        name,
				Description: reg.Description,
				Filter:      sc.expr,
				Params:      rec.params,
				Value:       v,
			})
			if err != nil {
				return nil, fmt.Errorf("encode response: %w", err)
			}
			sb := newStoredBody(body)
			renderEnd = time.Now()
			return sb, nil
		})
	if err != nil {
		ent.live.RUnlock()
		// A broken corpus poisons every analysis of the scope: drop the
		// entry so the next request retries ingestion instead of
		// replaying the memoized failure forever. An analysis that
		// errors on a healthy corpus keeps its (cheap, memoized) entry.
		if ent.eng.IngestionFailed() {
			s.pool.dropReason(ent, "ingestion_failed", rec.traceID())
		}
		// Parameter combinations the per-key validation cannot see
		// (hac without k or cut, k beyond the scope's corpus) blame the
		// request, not the server.
		var bad *analysis.BadParamsError
		if errors.As(err, &bad) {
			paramError(w, reg, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sb := out.(*storedBody)
	rec.addRendered(obs.StageSerialize, renderStart, renderEnd, sb)
	// The validator is attached only now, to a response that represents
	// the resource — an error above must not hand out an ETag that
	// would later revalidate to a misleading 304. The audit record
	// carries the digest of the exact bytes about to be served, under
	// the same fingerprint + canonical params identity the ETag derives
	// from, and both the record and the trace carry the digest so a
	// span can be matched to its audit row (and vice versa).
	rec.digest = sb.digest
	s.appendAudit(fingerprint, name, rec.params, sc.expr, rec.digest, rec.traceID())
	ent.live.RUnlock()
	writeValidator(w, etag)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sb.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sb.body)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// The report renders fixed sections with default parameters, so any
	// key but filter is a mistake — a typo'd ?filtre= must not silently
	// serve the unfiltered corpus (the same refusal specanalyze gives
	// -p without -only/-json). Unknown keys are sorted so the echoed
	// 400 body is deterministic regardless of map iteration order.
	var unknown []string
	for key := range q {
		if key != "filter" {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"report takes no parameters: unknown query key %q (only filter)", unknown[0]))
		return
	}
	sc, err := parseScope(q.Get("filter"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec := requestRecord(r)
	rec.analysis, rec.filter = "report", sc.expr
	start := time.Now()
	ent, err := s.pool.get(sc, rec.traceID())
	rec.add("build", start, time.Now())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Same read-lock discipline as handleAnalysis: the ETag and the
	// rendered bytes come from one corpus state, released before the
	// network write.
	ent.live.RLock()
	fingerprint := ent.fingerprint
	etag := etagFor(fingerprint, "report", sc.expr)
	rec.etag = etag
	if notModified(r, etag) {
		ent.live.RUnlock()
		writeValidator(w, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// The engine renders the report into a buffer once per corpus
	// state, so a mid-report analysis failure becomes a clean 500
	// instead of half a 200, and keeps the bytes until an append. The
	// request that renders records one "render" stage covering compute
	// and serialize in one pass, rather than owned engine events, since
	// WriteReport fans analyses out internally and per-request
	// attribution of the shared memo fills would mislead.
	start = time.Now()
	var renderStart time.Time // stays zero unless this request renders
	out, err := ent.eng.ReportRendered(func(report []byte) (any, error) {
		renderStart = start
		return newStoredBody(report), nil
	})
	if err != nil {
		rec.add("render", start, time.Now())
		ent.live.RUnlock()
		if ent.eng.IngestionFailed() {
			s.pool.dropReason(ent, "ingestion_failed", rec.traceID())
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sb := out.(*storedBody)
	rec.addRendered("render", renderStart, time.Now(), sb)
	// The report is attributable output like any analysis: audit it
	// under the reserved name "report" (the registry rejects no such
	// analysis name collision — names are lowercase identifiers and
	// "report" is not registered).
	rec.digest = sb.digest
	s.appendAudit(fingerprint, "report", "", sc.expr, rec.digest, rec.traceID())
	ent.live.RUnlock()
	writeValidator(w, etag)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(sb.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sb.body)
}

// maxRunBody bounds a POST /v1/runs body. Real result files are tens
// of kilobytes; 4MB leaves two orders of magnitude of headroom while
// keeping a runaway upload from buffering unbounded memory.
const maxRunBody = 4 << 20

// appendResponse is the POST /v1/runs success body.
type appendResponse struct {
	// ID of the appended run, echoed from the parsed file.
	ID string `json:"id"`
	// Generation the corpus advanced to; every scope's ETag has rolled.
	Generation uint64 `json:"generation"`
}

// handleAppendRun ingests one result file — the request body, verbatim
// in the same format the corpus directory holds — into the live corpus.
// The append is synchronous: when the 200 returns, every resident
// engine has folded the run in and every ETag has rolled.
func (s *Server) handleAppendRun(w http.ResponseWriter, r *http.Request) {
	rec := requestRecord(r)
	rec.analysis = "append"
	start := time.Now()
	run, err := parser.Parse(http.MaxBytesReader(w, r.Body, maxRunBody))
	rec.add("parse", start, time.Now())
	if errors.As(err, new(*http.MaxBytesError)) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("result file exceeds %d bytes", maxRunBody))
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parse result file: %v", err))
		return
	}
	rec.runID = run.ID
	start = time.Now()
	gen := s.pool.absorb([]*model.Run{run}, true, rec.traceID())
	rec.add("append", start, time.Now(), trace.Attr{Key: "generation", Value: strconv.FormatUint(gen, 10)})
	writeJSON(w, http.StatusOK, appendResponse{ID: run.ID, Generation: gen})
}

// errNotLive rejects append-plane calls on a server built without
// Config.Live.
var errNotLive = errors.New("serve: live ingestion disabled (set Config.Live)")

// Generation reports the live corpus generation (0 on a static server:
// the corpus never moves).
func (s *Server) Generation() uint64 {
	if s.pool.live == nil {
		return 0
	}
	return s.pool.live.Generation()
}

// AppendRuns folds runs that exist nowhere else — no backing file the
// base source could re-deliver — into the live corpus, synchronously:
// the overlay, every resident engine, and every fingerprint have
// absorbed them when it returns. The programmatic form of POST
// /v1/runs.
func (s *Server) AppendRuns(runs ...*model.Run) (uint64, error) {
	if s.pool.live == nil {
		return 0, errNotLive
	}
	return s.pool.absorb(runs, true, ""), nil
}

// AbsorbBaseGrowth folds runs whose result files the base source
// already sees — the watcher path, after new files landed in the
// corpus directory. The runs reach built engines through the delta
// path, but stay out of the overlay: a root built later streams them
// from the base source, and double-absorbing them here would deliver
// them twice.
func (s *Server) AbsorbBaseGrowth(runs ...*model.Run) (uint64, error) {
	if s.pool.live == nil {
		return 0, errNotLive
	}
	return s.pool.absorb(runs, false, ""), nil
}

// ResetPool drops every resident engine and rolls the generation: the
// base corpus changed in a way the delta path cannot express (a result
// file modified or deleted), so each scope rebuilds from the current
// corpus on its next request. Returns the number of entries dropped.
func (s *Server) ResetPool(reason string) (int, error) {
	if s.pool.live == nil {
		return 0, errNotLive
	}
	return s.pool.reset(reason), nil
}
