package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs/evlog"
)

// Record is one appended audit entry: the provenance of one served
// response, chained to its predecessor. Hash covers every other field
// including Prev, so mutating any byte of any record — or reordering,
// inserting, or removing one — breaks verification from that record on.
type Record struct {
	// Seq is the zero-based chain position.
	Seq uint64 `json:"seq"`
	// Time is the append timestamp, RFC3339Nano UTC.
	Time string `json:"time"`
	// Fingerprint is the corpus identity the response was computed
	// from: the served scope's core.SourceFingerprint, which already
	// folds the base corpus identity and the canonical filter together.
	Fingerprint string `json:"fingerprint"`
	// Analysis is the registry name served ("report" for the full text
	// report endpoint).
	Analysis string `json:"analysis"`
	// Params is the canonical non-default parameter string ("" for a
	// default request), the same identity that keys memos and ETags.
	Params string `json:"params,omitempty"`
	// Filter is the canonical scope expression, redundant with
	// Fingerprint but kept human-readable.
	Filter string `json:"filter,omitempty"`
	// ResultDigest is core.Digest over the exact served body bytes.
	ResultDigest string `json:"result_digest"`
	// TraceID is the request trace that produced the response (32 hex
	// digits), "" when the server ran without tracing. Absent from the
	// JSON — and from the record hash — when empty, so logs written
	// before tracing existed keep verifying byte-for-byte.
	TraceID string `json:"trace_id,omitempty"`
	// Prev is the previous record's Hash (ChainGenesis for Seq 0).
	Prev string `json:"prev"`
	// Hash chains this record: core.Digest over every field above.
	Hash string `json:"hash"`
}

// ChainGenesis anchors the first record's Prev so every link in the
// chain, including the first, has a non-empty predecessor hash.
var ChainGenesis = core.Digest("specserve-audit-genesis")

// recordHash computes the chain hash of r from its content fields and
// Prev, reusing core.Digest's length-prefixed framing so field
// boundaries cannot be forged by shifting bytes between fields. A
// non-empty TraceID joins the hash under its own domain label;
// an empty one contributes nothing, which keeps every record written
// before the field existed verifying under today's code. That
// conditional is safe because chain integrity rests on anchoring the
// head hash externally, not on guessing-resistance of individual
// fields — and the framing makes "trace:" + id unforgeable by
// shifting bytes from neighboring fields.
func recordHash(r Record) string {
	fields := []string{
		"audit-record", strconv.FormatUint(r.Seq, 10), r.Time, r.Fingerprint,
		r.Analysis, r.Params, r.Filter, r.ResultDigest,
	}
	if r.TraceID != "" {
		fields = append(fields, "trace:"+r.TraceID)
	}
	fields = append(fields, r.Prev)
	return core.Digest(fields...)
}

// ResultDigest digests the exact bytes a response served, the value
// recorded in Record.ResultDigest.
func ResultDigest(body []byte) string {
	return core.Digest("result", string(body))
}

// Entry is the caller-supplied part of a record; the log assigns Seq,
// Prev, and Hash when the entry is chained.
type Entry struct {
	Time         time.Time
	Fingerprint  string
	Analysis     string
	Params       string
	Filter       string
	ResultDigest string
	// TraceID links the record to the request trace that served the
	// bytes ("" when tracing is off).
	TraceID string
}

// AuditOptions tune the batching writer. Zero values select defaults.
type AuditOptions struct {
	// FlushRecords flushes the buffered file writer once this many
	// records accumulate since the last flush (default 64).
	FlushRecords int
	// FlushInterval flushes on this cadence regardless of volume, so a
	// quiet server still persists its tail promptly (default 500ms).
	FlushInterval time.Duration
	// QueueSize bounds the append channel (default 4096). Append blocks
	// only if the writer goroutine falls this far behind — memory
	// backpressure, never file I/O on the caller.
	QueueSize int
	// Events, when non-nil, receives an audit_flush lifecycle event per
	// file flush (Debug level: records flushed, reason, queue depth at
	// flush time). Nil — the default — logs nothing.
	Events *evlog.Logger
}

func (o AuditOptions) withDefaults() AuditOptions {
	if o.FlushRecords <= 0 {
		o.FlushRecords = 64
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 500 * time.Millisecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	return o
}

// AuditLog is a hash-chained append-only log with a batching writer:
// Append enqueues onto a bounded channel and returns; a single writer
// goroutine assigns chain positions, encodes, and flushes the file on
// batch size, interval, and Close. Close drains everything already
// enqueued before returning, so a graceful shutdown loses no records.
type AuditLog struct {
	path string
	opts AuditOptions

	ch   chan Entry
	done chan struct{}

	mu     sync.RWMutex // guards closed against concurrent Append/Close
	closed bool

	records   atomic.Int64 // chained records over the process lifetime
	writeErrs atomic.Int64

	// flush accounting, split by what triggered the flush
	flushBatch     atomic.Int64
	flushInterval  atomic.Int64
	flushClose     atomic.Int64
	flushedRecords atomic.Int64

	// writer-goroutine state
	f       *os.File
	w       *bufio.Writer
	seq     uint64
	prev    string
	pending int
}

// OpenAuditLog opens (or creates) the chained log at path and verifies
// any existing contents before appending: the chain resumes from the
// verified head, and a log that fails verification refuses to open —
// appending to a tampered or truncated-mid-record log would bury the
// evidence under fresh valid records.
func OpenAuditLog(path string, opts AuditOptions) (*AuditLog, error) {
	opts = opts.withDefaults()
	seq, prev := uint64(0), ChainGenesis
	if rf, err := os.Open(path); err == nil {
		res, verr := VerifyChain(rf)
		rf.Close()
		if verr != nil {
			return nil, fmt.Errorf("obs: audit log %s: %w", path, verr)
		}
		seq, prev = uint64(res.Records), ChainGenesis
		if res.Records > 0 {
			prev = res.HeadHash
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("obs: audit log %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: audit log %s: %w", path, err)
	}
	l := &AuditLog{
		path: path,
		opts: opts,
		ch:   make(chan Entry, opts.QueueSize),
		done: make(chan struct{}),
		f:    f,
		w:    bufio.NewWriterSize(f, 64<<10),
		seq:  seq,
		prev: prev,
	}
	l.records.Store(int64(seq)) // resume the chain-length count too
	go l.run()
	return l, nil
}

// Append enqueues one entry for chaining. It never touches the file:
// the only way it blocks is a full in-memory queue (the writer
// goroutine QueueSize records behind). Appending to a closed log is a
// silent no-op — shutdown races drop the entry rather than panic.
func (l *AuditLog) Append(e Entry) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return
	}
	l.ch <- e
}

// Records reports the chain length: records verified at open plus
// records chained (assigned a seq and encoded toward the file) since.
func (l *AuditLog) Records() int64 { return l.records.Load() }

// Close drains every enqueued entry, flushes, and closes the file.
func (l *AuditLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.ch)
	l.mu.Unlock()
	<-l.done
	var err error
	if l.writeErrs.Load() > 0 {
		err = fmt.Errorf("obs: audit log %s: %d write errors", l.path, l.writeErrs.Load())
	}
	if ferr := l.f.Close(); err == nil && ferr != nil {
		err = fmt.Errorf("obs: audit log %s: %w", l.path, ferr)
	}
	return err
}

// run is the writer goroutine: chain, encode, batch, flush.
func (l *AuditLog) run() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case e, ok := <-l.ch:
			if !ok {
				l.flush("close")
				return
			}
			l.chain(e)
			if l.pending >= l.opts.FlushRecords {
				l.flush("batch")
			}
		case <-ticker.C:
			l.flush("interval")
		}
	}
}

func (l *AuditLog) chain(e Entry) {
	r := Record{
		Seq:          l.seq,
		Time:         e.Time.UTC().Format(time.RFC3339Nano),
		Fingerprint:  e.Fingerprint,
		Analysis:     e.Analysis,
		Params:       e.Params,
		Filter:       e.Filter,
		ResultDigest: e.ResultDigest,
		TraceID:      e.TraceID,
		Prev:         l.prev,
	}
	r.Hash = recordHash(r)
	line, err := json.Marshal(r)
	if err != nil {
		// A Record is all strings and ints; Marshal cannot fail short of
		// memory corruption. Count it rather than silently advance the
		// chain past a hole.
		l.writeErrs.Add(1)
		return
	}
	line = append(line, '\n')
	if _, err := l.w.Write(line); err != nil {
		l.writeErrs.Add(1)
		return
	}
	l.seq++
	l.prev = r.Hash
	l.pending++
	l.records.Add(1)
}

func (l *AuditLog) flush(reason string) {
	if l.pending == 0 {
		return
	}
	if err := l.w.Flush(); err != nil {
		l.writeErrs.Add(1)
		return
	}
	n := l.pending
	l.pending = 0
	switch reason {
	case "batch":
		l.flushBatch.Add(1)
	case "interval":
		l.flushInterval.Add(1)
	case "close":
		l.flushClose.Add(1)
	}
	l.flushedRecords.Add(int64(n))
	l.opts.Events.Debug("audit_flush",
		evlog.String("reason", reason),
		evlog.Int("records", n),
		evlog.Int("queue_depth", len(l.ch)))
}

// QueueDepth reports the entries currently enqueued and not yet
// chained — how far the writer goroutine is behind its callers.
func (l *AuditLog) QueueDepth() int { return len(l.ch) }

// FlushStats is a point-in-time snapshot of the batching writer's
// flush accounting: flushes split by trigger, plus the total records
// those flushes pushed to the file.
type FlushStats struct {
	Batch          int64 // flushes triggered by FlushRecords accumulating
	Interval       int64 // flushes triggered by the FlushInterval ticker
	Close          int64 // the final drain flush (0 or 1)
	FlushedRecords int64 // records covered by all flushes together
}

// FlushStats reports the log's flush counters. Ticker fires with
// nothing pending are not counted — every counted flush moved bytes.
func (l *AuditLog) FlushStats() FlushStats {
	return FlushStats{
		Batch:          l.flushBatch.Load(),
		Interval:       l.flushInterval.Load(),
		Close:          l.flushClose.Load(),
		FlushedRecords: l.flushedRecords.Load(),
	}
}

// ChainError reports the first record that fails verification.
type ChainError struct {
	// Index is the zero-based position (line number) of the failing
	// record in the log.
	Index  int
	Reason string
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("obs: audit chain broken at record %d: %s", e.Index, e.Reason)
}

// VerifyResult summarizes a successful chain verification. HeadHash is
// the last record's hash — the anchor to store externally: a log
// truncated at a record boundary still verifies internally, but its
// head no longer matches the anchored value.
type VerifyResult struct {
	Records  int
	HeadHash string
	// HeadTraceID is the last record's trace id ("" for logs written
	// without tracing) — specaudit head surfaces it so an operator can
	// jump from the chain head to the trace that produced it.
	HeadTraceID string
}

// VerifyChain reads a chained log and checks every link: sequential
// seq, prev equal to the predecessor's hash (ChainGenesis first), and
// each record's hash matching its recomputed content hash. Any
// single-byte mutation — in a field, in a hash, or one that breaks the
// JSON — fails with the index of the first bad record; so do inserted,
// removed, or reordered records, and a partial (torn) final line.
func VerifyChain(r io.Reader) (VerifyResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	prev := ChainGenesis
	headTrace := ""
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		// DisallowUnknownFields matters for integrity: a mutated byte
		// inside a key (say "seq" -> "sep") would otherwise be silently
		// ignored, and for a record whose real value is the field's zero
		// value the recomputed hash would still match.
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return VerifyResult{}, &ChainError{Index: n, Reason: fmt.Sprintf("unparsable record: %v", err)}
		}
		if dec.More() {
			return VerifyResult{}, &ChainError{Index: n, Reason: "trailing data after record"}
		}
		if rec.Seq != uint64(n) {
			return VerifyResult{}, &ChainError{Index: n, Reason: fmt.Sprintf("seq %d, want %d", rec.Seq, n)}
		}
		if rec.Prev != prev {
			return VerifyResult{}, &ChainError{Index: n, Reason: "prev hash does not match predecessor"}
		}
		if got := recordHash(rec); got != rec.Hash {
			return VerifyResult{}, &ChainError{Index: n, Reason: "record hash does not match contents"}
		}
		prev = rec.Hash
		headTrace = rec.TraceID
		n++
	}
	if err := sc.Err(); err != nil {
		return VerifyResult{}, fmt.Errorf("obs: audit chain read: %w", err)
	}
	head := ""
	if n > 0 {
		head = prev
	}
	return VerifyResult{Records: n, HeadHash: head, HeadTraceID: headTrace}, nil
}
