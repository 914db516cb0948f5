// Package evlog is a small structured, leveled event logger — the one
// log specserve writes. Every line is one event: timestamp + level +
// event name + ordered key/value attributes. Requests, pool builds and
// evictions, audit batcher flushes, watcher absorbs and resets, and the
// process lifecycle (serve, drain) all share the stream, so a grep for
// event= or a JSON decoder reads all of it.
//
// Two encodings share one call site: Logfmt (key=value, quoted only
// when needed — grep-friendly) and JSON (one object per line, keys in
// emission order — machine-friendly). Events carry a trace_id attribute
// when the triggering request was traced, correlating log lines with
// /v1/traces span trees and audit records. Aggregate truth stays in
// /metrics; the event log is for sequence and attribution.
//
// A nil *Logger is a no-op receiver for every method, so the serving
// layer threads one pointer through unconditionally — logging off means
// nil, not branches.
package evlog
