// Package serve exposes the analysis registry as a long-running HTTP
// service — the network-facing surface over the streaming core.Engine.
//
// # Endpoints
//
//	GET /healthz                   liveness probe
//	GET /metrics                   Prometheus text exposition (counters + latency histograms)
//	GET /v1/analyses               the registry listing: {name, description, params}
//	GET /v1/analyses/{name}        one analysis result as {name, description, filter, params, value}
//	GET /v1/report                 the full text report
//	GET /v1/pool                   engine-pool introspection (resident scopes, cache counters)
//	GET /v1/traces                 recent request traces (?n= count, ?min_ms= slow filter)
//	GET /debug/pprof/              runtime profiles (Config.Pprof, loopback clients only)
//
// The analysis and report endpoints accept ?filter=EXPR, a
// core.ParseFilter corpus-slice expression ("vendor=AMD,since=2021"),
// selecting the scope the analysis runs over.
//
// # Typed parameters
//
// Every other query key is a typed parameter of the requested analysis,
// validated against the schema its registration declares
// (analysis.Registration.Params) — /v1/analyses/clusters?k=5&seed=3
// asks the clustering subsystem for a five-way partition under seed 3.
// An unknown key, an unparsable or out-of-range value, or a combination
// the analysis rejects (algo=hac without k or cut) is answered 400 with
// the declared schema echoed in the body, before any engine is built or
// corpus ingested. Resolved parameters canonicalize to their sorted
// non-default assignments; the canonical string keys the engine's memo
// (k=3 and k=5 are independent cached scenarios on one scope engine)
// and joins the ETag (each parameterization revalidates independently,
// and spelling a default out shares the default's validator).
//
// # The scope-keyed engine pool
//
// Every distinct scope maps to one lazily built core.Engine. Scopes are
// canonicalized (lower-cased, clause-sorted) before keying, so
// "since=2021,vendor=AMD" and "vendor=amd, since=2021" share an engine.
// The unfiltered scope is the root, which streams the base source; a
// filter scope is a view of it: the root's ingested runs that pass the
// filter, in stream order, classified by a new engine on first use. It
// serves what a fresh ingest of core.FilterSource over the base would,
// without touching the corpus directory or parse cache, and its ingest
// event names the source filter(<expr>, slice[n]), with no parts.
// Builds are single-flight (inside the entry's sync.Once, under the
// append-plane lock): N concurrent requests for a cold scope share one
// build, one ingestion, and one computation per analysis. Beyond
// PoolSize resident engines the least recently served scope is evicted
// (a request holding it finishes unharmed); the root stays the origin
// of scope builds, and a later unfiltered request puts it back. A
// failed build or ingestion is dropped, never pinned. Without live
// ingestion the corpus is never re-read: a scope first requested after
// files land in the directory serves the root's corpus and fingerprint.
//
// # ETags
//
// Responses carry strong ETags derived from (corpus fingerprint,
// endpoint, analysis name, canonical filter, canonical params). The
// root's fingerprint is core.SourceFingerprint — for directory corpora
// a digest of every file's path, size, and mtime; for synthetic ones
// the generator options — so the validator changes exactly when the
// served bytes could. A scope's is derived without a walk, as
// core.FilterSource reports it: core.Digest("filter", expr, root). On
// a live server the root's is core.AppendSource's, which keeps the
// base's fingerprint until the base changes: a directory corpus is
// walked when the root is built, after watcher growth
// (AbsorbBaseGrowth) and on the first build after a reset (ResetPool),
// never for a POSTed run, which moves only the generation and the
// overlay IDs the fingerprint composes. A repeat request carrying If-None-Match is answered 304 Not Modified
// with no recomputation and an empty body; Cache-Control: no-cache
// makes clients revalidate.
//
// # Observability
//
// Every request carries one record through its context: its root
// attributes and the stages it entered (queue_wait, build, ingest,
// compute, serialize), each boundary read from the clock once. Every
// pooled engine carries one core.Hook, fired once per ingest, compute
// and memo hit and tagged with the Owner of the request that did the
// work; the pool fans each event out to the server's obs.Collector
// and, when owned, to that request's record. When the request ends,
// the outermost middleware derives the Collector observation, the
// evlog request event and the optional trace from the record. Ingest and compute count once per actual event, so
// single-flight sharing cannot inflate them. The
// aggregates surface once: /metrics as Prometheus text exposition
// (cumulative histograms and counters, plus a specserve_runtime_*
// section sampled at scrape time). Percentiles are read from the
// buckets by the client (spectop, or histogram_quantile). /v1/pool adds
// only the per-scope state a flat series page cannot express.
//
// A 200 body is rendered once per memoized value: the encoded
// analysis response and its digest are stored on the engine's memo
// entry beside the value, and the rendered report on an engine entry
// of its own, so they share the memo's bound and its append
// invalidation. The serialize stage therefore measures two
// different things. On the request that renders, it times the JSON
// encode and the digest, not the compute that request may have waited
// on. On a request served from stored bytes it is a zero-length stage
// with cached=true, and it adds nothing to the serialize histogram,
// which thus counts actual renders. The report's "render" stage
// follows the same rule, except that on the rendering request it also
// covers the analyses the report computes.
//
// # Event log and pool introspection
//
// Config.Events (an obs/evlog.Logger) is the server's only log; nil
// logs nothing. Every request emits one "request" event carrying
// method, path, status, status_class, etag_revalidated, bytes,
// duration, and trace_id, in that key order; the state plane emits
// its own lifecycle through the same logger: pool_build (with the
// single-flight join count — how many requests waited on that one
// build), pool_evict with a reason (lru, build_failed,
// ingestion_failed, or the ResetPool reason), and audit_flush.
// The same instrumentation feeds counter families in /metrics
// (specserve_pool_*, specserve_memo_*, specserve_parse_cache_*,
// specserve_audit_queue_*) and GET /v1/pool, a deterministic snapshot
// of the resident scope engines: canonical filter, corpus fingerprint,
// age in requests, hit counts, memo occupancy, and approximate bytes,
// sorted by filter and byte-identical across reads on a quiesced
// server — the snapshot never touches the LRU order or any counter it
// reports. cmd/spectop renders both surfaces as a live dashboard.
//
// # Tracing
//
// Histograms aggregate; traces explain. Unless Config.TraceBufferSize
// is negative, the middleware mints a trace identity per request
// (adopting an inbound W3C Traceparent header and echoing the outbound
// one) and, when the request ends, renders the record as the span
// tree. Ingest and compute spans appear only on the request that paid
// for that work, so warm traces have no compute span. Kernel-depth
// spans (per k-means iteration, per HAC merge batch) come from
// count-only engine events the record stamps on receipt, keeping
// registered analyses clock-free under specvet's determinism gate.
// Completed traces are published to a bounded lock-free ring served by
// /v1/traces (?min_ms= keeps only the slow ones); the trace id also
// rides the request event and the audit record for the same response.
//
// # Audit
//
// With Config.Audit set, every attributable 200 — an analysis or report
// response, whose bytes derive from a corpus state — appends one record
// to an obs.AuditLog: timestamp, scope fingerprint, analysis name,
// canonical params, and a digest of the exact served bytes, each record
// hash-chained to its predecessor. Listings, health, metrics, pool
// views, errors, and 304s are never audited. The append is a channel send; a batching
// writer goroutine does the file I/O off the request path. The caller
// owns the log's lifecycle and closes it after the server drains.
//
// # Operational behavior
//
// Requests pass a bounded-concurrency gate (Config.MaxInFlight; waiters
// respect request-context cancellation and get 503 when the client
// gives up). cmd/specserve wires the package to the shared corpus
// flags, the -audit flag, and graceful shutdown on SIGINT/SIGTERM;
// cmd/specaudit verifies the chains specserve writes.
package serve
