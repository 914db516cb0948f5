package serve

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/trace"
)

// record is one request's single observation: its root attributes and
// the stages it entered, each boundary read from the clock once.
// withMetrics derives the Collector observation, the evlog event and
// the optional trace from it, so they cannot disagree.
// It wraps the ResponseWriter to capture the status and body size.
type record struct {
	http.ResponseWriter
	status int
	bytes  int64

	start time.Time
	// tr is minted at entry so headers, pool events and audit records
	// can carry its id; its spans are filled in at the end. Nil when
	// tracing is off.
	tr *trace.Trace

	// Root attributes, rendered in this order; empty ones are omitted.
	analysis, params, filter, etag, runID, digest string

	stages []stage
	buf    [5]stage // backs stages: queue_wait, build, ingest, compute, serialize

	// Kernel events wait here for the compute stage they nest under.
	// Analyses may emit them from worker goroutines, hence the lock.
	kmu  sync.Mutex
	kevs []stage
}

// stage is one timed step of a request. Children — per-source ingest
// parts, kernel events under compute — only ever surface as sub-spans.
type stage struct {
	name       string
	start, end time.Time
	attrs      []trace.Attr
	children   []stage
}

func (r *record) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *record) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// add appends one finished stage.
func (r *record) add(name string, start, end time.Time, attrs ...trace.Attr) {
	r.stages = append(r.stages, stage{name: name, start: start, end: end, attrs: attrs})
}

// addRendered records the request's serialize-side stage: the render
// window when this request rendered (start, end set by its render
// func), otherwise a zero-length stage marked cached=true, stamped when
// the stored bytes were in hand.
func (r *record) addRendered(name string, start, end time.Time, sb *storedBody) {
	n := trace.Attr{Key: "bytes", Value: strconv.Itoa(len(sb.body))}
	if start.IsZero() {
		now := time.Now()
		r.add(name, now, now, n, trace.Attr{Key: "cached", Value: "true"})
		return
	}
	r.add(name, start, end, n)
}

// dur returns the named stage's duration in nanoseconds, 0 when the
// request never entered it.
func (r *record) dur(name string) int64 {
	for _, st := range r.stages {
		if st.name == name {
			return st.end.Sub(st.start).Nanoseconds()
		}
	}
	return 0
}

// traceID returns the trace id, "" with tracing off.
func (r *record) traceID() string {
	if r.tr == nil {
		return ""
	}
	return r.tr.TraceID()
}

// engineEvent records an engine event this request owns. Ingest and
// compute become stages with the engine's timestamps. Count-only
// kernel events are stamped on receipt, here, so analyses stay
// clock-free — and only when traced, the one consumer of that depth.
func (r *record) engineEvent(ev core.Event) {
	st := stage{start: ev.Start, end: ev.End}
	switch ev.Kind {
	case core.EventIngest:
		st.name = obs.StageIngest
		st.attrs = []trace.Attr{{Key: "source", Value: ev.Source}, {Key: "runs", Value: strconv.Itoa(ev.Runs)}}
		for _, p := range ev.Parts {
			st.children = append(st.children, stage{name: "ingest-source", start: p.Start, end: p.End,
				attrs: []trace.Attr{{Key: "source", Value: p.Source}, {Key: "runs", Value: strconv.Itoa(p.Runs)}}})
		}
	case core.EventCompute:
		st.name = obs.StageCompute
		st.attrs = []trace.Attr{{Key: "analysis", Value: ev.Name}}
		if ev.Params != "" {
			st.attrs = append(st.attrs, trace.Attr{Key: "params", Value: ev.Params})
		}
		r.kmu.Lock()
		st.children, r.kevs = r.kevs, nil
		r.kmu.Unlock()
		// Kernel event i covers the gap since event i-1 (the first one
		// since compute start, so it also absorbs feature extraction
		// ahead of the kernel).
		prev := ev.Start
		for i := range st.children {
			st.children[i].start, prev = prev, st.children[i].end
		}
	case core.EventKernel:
		if r.tr != nil {
			k := kernelStage(ev.Kernel)
			k.end = time.Now()
			r.kmu.Lock()
			r.kevs = append(r.kevs, k)
			r.kmu.Unlock()
		}
		return
	default:
		return
	}
	if ev.Err != nil {
		st.attrs = append(st.attrs, trace.Attr{Key: "error", Value: ev.Err.Error()})
	}
	r.stages = append(r.stages, st)
}

// recordKey carries the request's record through the context to the
// gate and the handlers.
type recordKeyType struct{}

var recordKey recordKeyType

// requestRecord returns the request's record (never nil: a request
// that somehow bypassed withMetrics gets a discardable one, so handlers
// need no nil checks).
func requestRecord(r *http.Request) *record {
	if rec, ok := r.Context().Value(recordKey).(*record); ok {
		return rec
	}
	return &record{}
}

// withGate bounds request concurrency: at most MaxInFlight requests run
// at once, later arrivals queue on the semaphore, and a queued client
// that gives up (context canceled, connection gone) gets 503 instead of
// holding a goroutine forever. Time spent waiting for a slot is the
// request's queue_wait stage.
func (s *Server) withGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wait := time.Now()
		select {
		case s.gate <- struct{}{}:
		case <-r.Context().Done():
			s.counters.rejected.Add(1)
			httpError(w, http.StatusServiceUnavailable, "server busy")
			return
		}
		requestRecord(r).add(obs.StageQueueWait, wait, time.Now())
		s.counters.inFlight.Add(1)
		defer func() {
			s.counters.inFlight.Add(-1)
			<-s.gate
		}()
		next.ServeHTTP(w, r)
	})
}

// withMetrics is the outermost layer: it plants the request's record in
// the context (minting the trace identity when tracing is on) and, when
// the handler chain returns, derives every view of the request from
// that record — the single point every response (200, 304, 4xx, 5xx,
// and gate 503s alike) is counted at.
func (s *Server) withMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &record{ResponseWriter: w, start: time.Now()}
		rec.stages = rec.buf[:0]
		if s.traces != nil {
			rec.tr = trace.New(r.Method+" "+r.URL.Path, r.Header.Get("Traceparent"), rec.start)
			// The outbound header carries this trace's id with the local
			// root span as parent, so a caller's distributed trace links
			// up; set before the handler writes the status line.
			w.Header().Set("Traceparent", rec.tr.Traceparent())
		}
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), recordKey, rec)))
		if rec.status == 0 {
			rec.status = http.StatusOK // nothing written: net/http defaults to 200
		}
		end := time.Now()
		dur := end.Sub(rec.start)
		s.metrics.ObserveRequest(&obs.RequestMetrics{
			Analysis:    rec.analysis,
			Status:      rec.status,
			QueueWaitNs: rec.dur(obs.StageQueueWait),
			SerializeNs: rec.dur(obs.StageSerialize),
			TotalNs:     dur.Nanoseconds(),
		})
		if rec.tr != nil {
			s.publishTrace(rec, end)
		}
		s.requestEvent(r, rec, dur)
	})
}

// requestEvent emits the request's log line: every response carries
// its trace id, and status_class / etag_revalidated make error
// responses and 304 revalidations grep-distinguishable from
// attributable 200s.
func (s *Server) requestEvent(r *http.Request, rec *record, dur time.Duration) {
	if s.cfg.Events == nil {
		return
	}
	attrs := append(make([]evlog.Attr, 0, 10),
		evlog.String("method", r.Method),
		evlog.String("path", r.URL.RequestURI()),
		evlog.Int("status", rec.status),
		evlog.String("status_class", strconv.Itoa(rec.status/100)+"xx"),
		evlog.Bool("etag_revalidated", rec.status == http.StatusNotModified),
		evlog.Int64("bytes", rec.bytes),
		evlog.Dur("dur", dur),
		evlog.String("trace_id", rec.traceID()),
	)
	if rec.analysis != "" {
		attrs = append(attrs, evlog.String("analysis", rec.analysis))
	}
	if rec.params != "" {
		attrs = append(attrs, evlog.String("params", rec.params))
	}
	level := evlog.Info
	switch {
	case rec.status >= 500:
		level = evlog.Error
	case rec.status >= 400:
		level = evlog.Warn
	}
	s.cfg.Events.Log(level, "request", attrs...)
}
