package serve

import (
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs/trace"
)

// kernelStage renders one count-only kernel event as a stage; the
// receiver stamps its end and the compute stage later fills its start.
func kernelStage(ev analysis.KernelEvent) stage {
	st := stage{name: ev.Kernel + "-" + ev.Event}
	switch ev.Kernel {
	case "kmeans":
		st.attrs = []trace.Attr{
			{Key: "iteration", Value: strconv.Itoa(ev.Index)},
			{Key: "moved", Value: strconv.Itoa(ev.Moved)},
			{Key: "converged", Value: strconv.FormatBool(ev.Converged)},
		}
	case "hac":
		st.attrs = []trace.Attr{
			{Key: "batch", Value: strconv.Itoa(ev.Index)},
			{Key: "merges", Value: strconv.Itoa(ev.Merges)},
			{Key: "max_dist", Value: strconv.FormatFloat(ev.MaxDist, 'g', -1, 64)},
		}
	default:
		st.attrs = []trace.Attr{{Key: "index", Value: strconv.Itoa(ev.Index)}}
	}
	return st
}

// span renders the stage, and its children, as a child of parent.
func (st *stage) span(parent *trace.Span) {
	sp := parent.ChildAt(st.name, st.start)
	for _, a := range st.attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	for i := range st.children {
		st.children[i].span(sp)
	}
	sp.FinishAt(st.end)
}

// publishTrace renders a finished traced record as its span tree — one
// root child per stage, the root attributes, the status — ends the
// root at end, and publishes the trace to the ring.
func (s *Server) publishTrace(rec *record, end time.Time) {
	root := rec.tr.Root()
	for i := range rec.stages {
		rec.stages[i].span(root)
	}
	for _, a := range [...]trace.Attr{
		{Key: "analysis", Value: rec.analysis},
		{Key: "params", Value: rec.params},
		{Key: "filter", Value: rec.filter},
		{Key: "etag", Value: rec.etag},
		{Key: "run_id", Value: rec.runID},
		{Key: "audit_digest", Value: rec.digest},
	} {
		if a.Value != "" {
			root.SetAttr(a.Key, a.Value)
		}
	}
	root.SetAttr("status", strconv.Itoa(rec.status))
	root.FinishAt(end)
	s.traces.Add(rec.tr)
}

// tracesResponse is the GET /v1/traces body.
type tracesResponse struct {
	// Capacity is the ring bound; Recorded counts every trace ever
	// pushed, including overwritten ones.
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	// Traces are the resident completed traces, newest first.
	Traces []trace.Snapshot `json:"traces"`
}

// handleTraces serves the recent-trace ring: ?n= bounds the count,
// ?min_ms= keeps only traces at least that slow. The response is
// assembled from completed traces only (a trace joins the ring after
// its response is written), so this request never observes itself.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := s.traces.Capacity()
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		limit = n
	}
	var minNs int64
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, "min_ms must be a non-negative integer")
			return
		}
		minNs = int64(ms) * int64(time.Millisecond)
	}
	resp := tracesResponse{
		Capacity: s.traces.Capacity(),
		Recorded: s.traces.Recorded(),
		Traces:   []trace.Snapshot{},
	}
	for _, tr := range s.traces.Snapshot() {
		if len(resp.Traces) == limit {
			break
		}
		if d := tr.DurationNs(); d < minNs {
			continue
		}
		resp.Traces = append(resp.Traces, tr.Snapshot())
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, resp)
}

// loopbackOnly wraps a pprof handler so only loopback clients reach
// it: profiles expose memory contents and must not leak past the host
// even when the server itself is bound wide. Non-loopback callers get
// the same 404 a server without -pprof serves, revealing nothing.
func loopbackOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
			http.NotFound(w, r)
			return
		}
		h(w, r)
	}
}

// mountPprof wires net/http/pprof onto the mux, loopback-gated. The
// index route also serves the named runtime profiles (heap, goroutine,
// block, mutex, …) by path suffix.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", loopbackOnly(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", loopbackOnly(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", loopbackOnly(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", loopbackOnly(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", loopbackOnly(pprof.Trace))
}
