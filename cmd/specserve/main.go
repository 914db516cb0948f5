// Command specserve serves the analysis registry over HTTP: a
// long-running daemon over the same corpus flags as specanalyze
// (internal/cliutil), exposing
//
//	GET /healthz                      liveness
//	GET /metrics                      Prometheus text exposition (counters, stage/analysis latency histograms)
//	GET /v1/analyses                  registry listing with parameter schemas
//	GET /v1/analyses/{name}?filter=   one analysis over a corpus slice
//	GET /v1/report?filter=            the full text report
//	GET /v1/pool                      engine-pool introspection (resident scopes, cache counters)
//	GET /v1/traces                    recent request traces (?n= count, ?min_ms= slow filter)
//	POST /v1/runs                     append one result file to the live corpus (-live/-watch only)
//	GET /debug/pprof/                 runtime profiles (-pprof only, loopback clients only)
//
// Each distinct ?filter= scope gets its own lazily built, memoized
// engine from an LRU-bounded pool (single-flight construction, shared
// ingestion). Analyses with declared parameters take them as further
// query keys (/v1/analyses/clusters?filter=vendor=amd&k=5), validated
// against the registered schema — bad input is a 400 with the schema
// echoed — and each parameterization is memoized and ETagged
// independently, so repeat traffic is answered 304 Not Modified
// without recomputation — see internal/serve.
// The -filter flag pre-slices the corpus every request sees;
// per-request ?filter= expressions compose on top of it.
//
// With -audit FILE, every attributable 200 (analysis and report
// responses) appends a hash-chained provenance record — timestamp,
// corpus fingerprint, analysis, canonical params, digest of the served
// bytes — to FILE via a batching writer that never blocks the request
// path on I/O. Verify the chain with `specaudit verify FILE`.
//
// Every request is traced by default: the server keeps the most recent
// completed span trees in a bounded in-memory ring (-trace-buf, 0
// disables) served by GET /v1/traces, echoes a W3C Traceparent response
// header (adopting an inbound one), and with -trace-slow D logs one
// line per request slower than D carrying its trace id. -pprof
// additionally mounts net/http/pprof for loopback clients.
//
// With -live, the corpus becomes appendable while serving: POST
// /v1/runs takes one result-file body, folds the parsed run into every
// resident scope engine through the delta path (no rebuilds), and
// bumps the corpus generation — every scope's ETag rolls exactly then,
// so clients revalidating with If-None-Match see 304s until the corpus
// actually grows and a full 200 immediately after. -watch additionally
// polls the directory -in corpora (every -watch-interval): new result
// files are absorbed like POSTed runs, while modified or deleted files
// — changes an append cannot express — reset the engine pool so every
// scope rebuilds from the changed directory. Generation and append
// counters surface in /metrics (specserve_generation,
// specserve_appends_total) and per scope in /v1/pool.
//
// Usage:
//
//	specserve [-addr :8080] [-in corpus/]... [-cache] [-workers 8]
//	          [-filter expr] [-pool 32] [-max-inflight 64] [-warm]
//	          [-live] [-watch] [-watch-interval 2s]
//	          [-audit audit.log] [-trace-buf 256] [-trace-slow 500ms]
//	          [-pprof] [-log-format text|logfmt|json]
//
// -log-format selects the log encoding: text (default) preserves the
// historical one-line request log byte-for-byte; logfmt and json emit
// one structured event per line to stderr — every request event carries
// its trace_id, status_class, and etag_revalidated, and the state-plane
// machinery (engine pool, audit batcher) logs its lifecycle (pool_build
// with single-flight join counts, pool_evict with reasons, audit_flush)
// through the same stream. Watch it live with `spectop`.
//
// The server drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM; the audit log is flushed and closed as part of the drain.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", serve.DefaultPoolSize, "max resident scope engines (LRU-evicted beyond)")
	inflight := flag.Int("max-inflight", serve.DefaultMaxInFlight, "max concurrently served requests")
	warm := flag.Bool("warm", false, "ingest the whole-corpus scope before accepting traffic")
	liveOn := flag.Bool("live", false, "enable live ingestion: POST /v1/runs appends result files to the corpus")
	watch := flag.Bool("watch", false, "poll directory -in corpora for new result files and absorb them (implies -live)")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "poll cadence for -watch")
	auditPath := flag.String("audit", "", "append hash-chained audit records to this file (verify with specaudit)")
	traceBuf := flag.Int("trace-buf", serve.DefaultTraceBuffer, "completed request traces kept for /v1/traces (0 disables tracing)")
	traceSlow := flag.Duration("trace-slow", 0, "log requests slower than this duration with their trace id (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof for loopback clients")
	logFormat := flag.String("log-format", "text",
		"request/event log format: text (legacy one-line), logfmt, or json")
	corpus := cliutil.RegisterCorpusFlags(flag.CommandLine)
	flag.Parse()

	// "text" keeps the historical one-line request log byte-for-byte;
	// logfmt/json switch to the structured event log (trace_id on every
	// request line, state-plane pool/cache/audit events).
	var (
		logf   func(format string, args ...any)
		events *evlog.Logger
	)
	switch *logFormat {
	case "text":
		logf = log.Printf
	default:
		enc, err := evlog.ParseEncoding(*logFormat)
		if err != nil {
			log.Fatalf("-log-format: %v", err)
		}
		events = evlog.New(os.Stderr, evlog.Options{Encoding: enc})
	}

	src, err := corpus.Source()
	if err != nil {
		log.Fatal(err)
	}
	watchDirs := corpus.Dirs()
	if *watch && len(watchDirs) == 0 {
		log.Fatal("-watch needs at least one directory -in to poll")
	}
	var audit *obs.AuditLog
	if *auditPath != "" {
		audit, err = obs.OpenAuditLog(*auditPath, obs.AuditOptions{Events: events})
		if err != nil {
			// A log that fails chain verification refuses to open —
			// appending would bury the evidence. Operators keep the bad
			// file for forensics and point -audit somewhere fresh.
			log.Fatal(err)
		}
		log.Printf("auditing to %s (%d existing records)", *auditPath, audit.Records())
	}
	// The flag's 0-disables convention is friendlier than the Config's
	// negative sentinel (0 keeps the zero-valued Config meaning "default
	// ring" for library users).
	bufSize := *traceBuf
	if bufSize <= 0 {
		bufSize = -1
	}
	srv := serve.New(serve.Config{
		Base:            src,
		Live:            *liveOn || *watch,
		Workers:         corpus.Workers,
		PoolSize:        *pool,
		MaxInFlight:     *inflight,
		Logf:            logf,
		Audit:           audit,
		Events:          events,
		TraceBufferSize: bufSize,
		SlowTrace:       *traceSlow,
		Pprof:           *pprofOn,
	})
	if *warm {
		log.Printf("warming corpus %s", src.Name())
		if err := srv.Warm(); err != nil {
			log.Fatal(err)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch {
		// The watcher polls the directory corpora on a real ticker (the
		// injectable clock stays inside internal/live for tests) and
		// routes each delta through the cheapest absorption the serving
		// layer offers: pure growth goes down the append path — warm
		// engines fold the new runs in without a rebuild — while rewrites
		// and deletions, which the delta path cannot express, reset the
		// pool so every scope rebuilds against the changed directory.
		w := live.NewWatcher(watchDirs...)
		if err := w.Baseline(); err != nil {
			log.Fatal(err)
		}
		ticker := time.NewTicker(*watchInterval)
		defer ticker.Stop()
		runner := &live.Runner{
			W:     w,
			Ticks: ticker.C,
			OnDelta: func(d live.Delta) {
				if len(d.Modified) > 0 || len(d.Removed) > 0 {
					dropped, err := srv.ResetPool("watch_rewrite")
					if err != nil {
						log.Printf("watch: reset: %v", err)
						return
					}
					log.Printf("watch: corpus rewritten (%d modified, %d removed); pool reset, %d engines dropped",
						len(d.Modified), len(d.Removed), dropped)
					return
				}
				runs := make([]*model.Run, 0, len(d.Added))
				for _, path := range d.Added { // sorted: absorption order is deterministic
					run, err := core.ParseResultFile(path)
					if err != nil {
						log.Printf("watch: %v", err)
						continue
					}
					runs = append(runs, run)
				}
				if len(runs) == 0 {
					return
				}
				gen, err := srv.AbsorbBaseGrowth(runs...)
				if err != nil {
					log.Printf("watch: absorb: %v", err)
					return
				}
				log.Printf("watch: absorbed %d new result file(s), generation %d", len(runs), gen)
			},
			OnError: func(err error) { log.Printf("watch: %v", err) },
		}
		go runner.Run(ctx)
		log.Printf("watching %s every %s", strings.Join(watchDirs, ", "), *watchInterval)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("serving %s on %s", src.Name(), *addr)

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure (Shutdown is the other
		// path out), so any error here is fatal.
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("signal received, draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		// In-flight requests have drained; close the audit log last so
		// every served 200 made it into the chain.
		if audit != nil {
			if err := audit.Close(); err != nil {
				log.Fatalf("audit: %v", err)
			}
			log.Printf("audit log closed: %d records", audit.Records())
		}
	}
}
