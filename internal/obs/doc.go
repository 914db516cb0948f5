// Package obs is the observability and provenance layer behind
// specserve: per-stage request timing aggregated into histograms and
// exposed in Prometheus text format, plus a hash-chained audit log that
// attributes every served result to the corpus state and parameters
// that produced it.
//
// # Timing
//
// The serving layer keeps one record per request and, when the
// request ends, derives a RequestMetrics from it (queue wait,
// serialization, total, status) together with the log line, the evlog
// event and the optional trace, so the views cannot disagree. Engine
// build, ingestion and compute arrive once per actual event
// (ObserveBuild, ObserveIngest, ObserveCompute). The Collector folds
// both into fixed-bucket histograms (per stage, and per analysis for
// end-to-end latency) and renders them, with the serving counters, as
// one Prometheus-text /metrics exposition (WritePrometheus), so
// existing scrape tooling works without a client library dependency.
// Percentiles are read from the cumulative buckets, by spectop through
// HistogramSnapshot.QuantileNs or by a scraper's histogram_quantile;
// the server computes none of its own.
//
// # Audit
//
// An AuditLog appends one Record per attributable 200 response:
// timestamp, corpus fingerprint, analysis name, canonical parameters,
// and a digest of the served bytes, chained through core.Digest — each
// record's hash covers the previous record's hash, so truncating,
// reordering, or mutating any byte of any record breaks the chain from
// that point on. VerifyChain detects the first broken record and
// reports its index. Appends go through a batching writer (bounded
// channel, background goroutine, flush on batch size, interval, or
// Close) so the serving hot path never blocks on file I/O, and Close
// drains every queued record before returning — a graceful shutdown
// loses nothing.
//
// Each record also carries the trace id of the request that served the
// bytes (empty when tracing is off). The id is folded into the record
// hash only when present, so logs written before tracing existed — or
// with tracing disabled — verify byte-for-byte under the current
// verifier, and anchors captured from them stay valid.
//
// # Event log
//
// The obs/evlog subpackage is the structured event stream the serving
// layer logs through: leveled, logfmt- or JSON-encoded events with
// ordered key/value attributes and a trace_id field correlating each
// event with /v1/traces. A nil *evlog.Logger is a no-op, so state
// holders instrument unconditionally and the caller decides at wiring
// time whether events flow. The AuditLog emits audit_flush events
// (reason, record count, queue depth) through AuditOptions.Events, and
// its FlushStats/QueueDepth accessors feed the
// specserve_audit_queue_* exposition families.
//
// # Tracing
//
// The histograms above answer "how slow are requests like this"; the
// obs/trace subpackage answers "where did this request spend its
// time". A Trace is a tree of timed Spans with ordered attributes,
// carrying W3C trace-context identity, rendered by the serving layer
// from the finished per-request record — the same timestamps the
// Collector saw — plus kernel-level child spans (one per k-means
// iteration or HAC merge batch) from count-only engine events, so the
// analyses themselves stay clock-free. Completed traces are published
// to a bounded lock-free Ring and served by /v1/traces.
//
// RuntimeSampler rounds out the picture: sampled at /metrics scrape
// time, it renders goroutine count, heap gauges, GC cycle count, and a
// cumulative GC pause histogram (WriteRuntimePrometheus) so a latency
// spike in the stage histograms can be checked against GC pressure
// without attaching a profiler.
package obs
