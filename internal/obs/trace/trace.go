package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute: an ordered key/value pair. Attributes
// render as an ordered list (not a map), so the JSON a trace serves is
// byte-stable for a given sequence of SetAttr calls.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. Children and attributes
// may be added from any goroutine until the span is finished; a span
// finished twice keeps its first end time.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero until finished
	attrs    []Attr
	children []*Span
}

// ChildAt starts a child span at start. Callers pass timestamps they
// already hold, so building a span tree never reads the clock.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	c := &Span{name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// FinishAt ends the span at an explicit time. The first finish wins.
func (s *Span) FinishAt(t time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.mu.Unlock()
}

// SetAttr appends one attribute.
func (s *Span) SetAttr(key, value string) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Trace is one request's span tree plus its propagation identity.
type Trace struct {
	traceID  string // 32 lowercase hex
	rootID   string // 16 lowercase hex, minted locally
	parentID string // inbound parent span id ("" when minted locally)
	root     *Span

	// seq is the ring position, assigned by Ring.Add before the trace
	// is published; 0 until then.
	seq uint64
}

// New opens a trace whose root span covers name, starting at start.
// traceparent, when it parses as a W3C header, donates the trace id
// and the caller's span id; otherwise a fresh trace id is minted.
func New(name, traceparent string, start time.Time) *Trace {
	t := &Trace{
		rootID: newID(8),
		root:   &Span{name: name, start: start},
	}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		t.traceID, t.parentID = tid, pid
	} else {
		t.traceID = newID(16)
	}
	return t
}

// TraceID returns the 32-hex-digit trace id.
func (t *Trace) TraceID() string { return t.traceID }

// ParentSpanID returns the inbound caller's span id, "" when the trace
// was minted locally.
func (t *Trace) ParentSpanID() string { return t.parentID }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Seq returns the ring sequence number (0 before the trace is added).
func (t *Trace) Seq() uint64 { return t.seq }

// Traceparent renders the outbound W3C header: this trace's id with
// the locally minted root span id as the parent for downstream hops.
func (t *Trace) Traceparent() string {
	return "00-" + t.traceID + "-" + t.rootID + "-01"
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-parentid-flags, lowercase hex). It returns ok =
// false for a missing, malformed, all-zero, or version-ff header —
// the cases the spec says to ignore and restart the trace on.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	// Version 00 is exactly 55 chars; future versions may append
	// "-..." fields after the flags, which parsers must tolerate.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	if len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		return "", "", false
	}
	version, tid, pid, flags := h[:2], h[3:35], h[36:52], h[53:55]
	if !isLowerHex(version) || version == "ff" ||
		!isLowerHex(tid) || allZero(tid) ||
		!isLowerHex(pid) || allZero(pid) ||
		!isLowerHex(flags) {
		return "", "", false
	}
	return tid, pid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// idFallback distinguishes ids minted when the system entropy source
// fails (vanishingly rare; a counter keeps them unique regardless).
var idFallback atomic.Uint64

// newID returns 2n lowercase hex digits of entropy, never all zero.
func newID(n int) string {
	b := make([]byte, n)
	if _, err := crand.Read(b); err != nil || allZeroBytes(b) {
		binary.BigEndian.PutUint64(b[n-8:], idFallback.Add(1)|1<<63)
	}
	return hex.EncodeToString(b)
}

func allZeroBytes(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// SpanSnapshot is a span's wire form: offsets relative to the trace
// start, so the tree reads as a timeline without timestamp arithmetic.
// DurationNs is -1 for a span that never finished (a handler leak —
// visible rather than silently zero).
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartNs    int64          `json:"start_ns"`
	DurationNs int64          `json:"duration_ns"`
	Attrs      []Attr         `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot is a trace's wire form, the element type of /v1/traces.
type Snapshot struct {
	TraceID      string       `json:"trace_id"`
	ParentSpanID string       `json:"parent_span_id,omitempty"`
	Seq          uint64       `json:"seq"`
	Start        string       `json:"start"` // RFC3339Nano UTC
	DurationNs   int64        `json:"duration_ns"`
	Root         SpanSnapshot `json:"root"`
}

// Snapshot renders the trace. Safe to call concurrently with span
// mutation (each span is copied under its own lock), though the usual
// caller snapshots only traces already published to a Ring — finished.
func (t *Trace) Snapshot() Snapshot {
	root := t.root.snapshot(t.root.start)
	return Snapshot{
		TraceID:      t.traceID,
		ParentSpanID: t.parentID,
		Seq:          t.seq,
		Start:        t.root.start.UTC().Format(time.RFC3339Nano),
		DurationNs:   root.DurationNs,
		Root:         root,
	}
}

// DurationNs returns the root span's duration (-1 while unfinished).
func (t *Trace) DurationNs() int64 {
	t.root.mu.Lock()
	end := t.root.end
	t.root.mu.Unlock()
	if end.IsZero() {
		return -1
	}
	return end.Sub(t.root.start).Nanoseconds()
}

func (s *Span) snapshot(origin time.Time) SpanSnapshot {
	s.mu.Lock()
	end := s.end
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	snap := SpanSnapshot{
		Name:       s.name,
		StartNs:    s.start.Sub(origin).Nanoseconds(),
		DurationNs: -1,
		Attrs:      attrs,
	}
	if !end.IsZero() {
		snap.DurationNs = end.Sub(s.start).Nanoseconds()
	}
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot(origin))
	}
	return snap
}
