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
// disables) served by GET /v1/traces (?min_ms= finds the slow ones) and
// echoes a W3C Traceparent response header (adopting an inbound one).
// -pprof additionally mounts net/http/pprof for loopback clients.
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
//	          [-audit audit.log] [-trace-buf 256]
//	          [-pprof] [-log-format logfmt|json]
//
// specserve writes one log: one structured event per line to stderr,
// logfmt by default or JSON with -log-format json. Every request event
// carries its trace_id, status_class, and etag_revalidated; the engine
// pool and audit batcher log their lifecycle (pool_build with
// single-flight join counts, pool_evict with reasons, audit_flush); the
// process logs audit_open, warm, serve, drain and audit_close; and the
// watcher logs watch_start, watch_absorb, watch_reset and watch_error.
// Only errors that end the process are plain text. Watch the counters
// live with `spectop`.
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
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof for loopback clients")
	logFormat := flag.String("log-format", "logfmt", "event log encoding: logfmt or json")
	corpus := cliutil.RegisterCorpusFlags(flag.CommandLine)
	flag.Parse()

	enc, err := evlog.ParseEncoding(*logFormat)
	if err != nil {
		log.Fatalf("-log-format: %v", err)
	}
	events := evlog.New(os.Stderr, evlog.Options{Encoding: enc})

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
		events.Info("audit_open", evlog.String("path", *auditPath), evlog.Int64("records", audit.Records()))
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
		Audit:           audit,
		Events:          events,
		TraceBufferSize: bufSize,
		Pprof:           *pprofOn,
	})
	if *warm {
		events.Info("warm", evlog.String("source", src.Name()))
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
						events.Error("watch_error", evlog.String("err", "reset: "+err.Error()))
						return
					}
					events.Info("watch_reset", evlog.Int("modified", len(d.Modified)),
						evlog.Int("removed", len(d.Removed)), evlog.Int("dropped", dropped))
					return
				}
				runs := make([]*model.Run, 0, len(d.Added))
				for _, path := range d.Added { // sorted: absorption order is deterministic
					run, err := core.ParseResultFile(path)
					if err != nil {
						events.Warn("watch_error", evlog.String("err", err.Error()))
						continue
					}
					runs = append(runs, run)
				}
				if len(runs) == 0 {
					return
				}
				gen, err := srv.AbsorbBaseGrowth(runs...)
				if err != nil {
					events.Error("watch_error", evlog.String("err", "absorb: "+err.Error()))
					return
				}
				events.Info("watch_absorb", evlog.Int("files", len(runs)), evlog.Int64("generation", int64(gen)))
			},
			OnError: func(err error) { events.Warn("watch_error", evlog.String("err", err.Error())) },
		}
		go runner.Run(ctx)
		events.Info("watch_start", evlog.String("dirs", strings.Join(watchDirs, ",")),
			evlog.Dur("every", *watchInterval))
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	events.Info("serve", evlog.String("source", src.Name()), evlog.String("addr", *addr))

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure (Shutdown is the other
		// path out), so any error here is fatal.
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		events.Info("drain")
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
			events.Info("audit_close", evlog.Int64("records", audit.Records()))
		}
	}
}
