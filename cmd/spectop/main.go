// Command spectop is a live terminal dashboard for a running specserve:
// it polls GET /metrics and /v1/pool and renders pool occupancy (one
// row per resident scope engine), request counters, stage latency
// percentiles, and cache hit ratios (engine memo, gob parse cache),
// refreshing in place until interrupted. Stage percentiles come from
// the exposition's buckets through obs.HistogramSnapshot.QuantileNs,
// the server's own estimator.
//
// Usage:
//
//	spectop [-addr http://localhost:8080] [-interval 2s] [-once]
//
// -once renders a single snapshot and exits (no screen clearing) — the
// scriptable form used by CI smoke tests; the exit status is non-zero
// if any endpoint cannot be fetched or parsed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spectop: ")
	addr := flag.String("addr", "http://localhost:8080", "specserve base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll interval (live mode)")
	once := flag.Bool("once", false, "render one snapshot and exit")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	if *once {
		snap, err := fetch(client, *addr)
		if err != nil {
			log.Fatal(err)
		}
		render(os.Stdout, *addr, snap)
		return
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		snap, err := fetch(client, *addr)
		var buf strings.Builder
		buf.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		if err != nil {
			fmt.Fprintf(&buf, "spectop: %v (retrying every %s)\n", err, *interval)
		} else {
			render(&buf, *addr, snap)
		}
		os.Stdout.WriteString(buf.String())
		select {
		case <-sigc:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// snapshot is one poll of the two introspection surfaces.
type snapshot struct {
	metrics map[string]float64
	pool    serve.PoolSnapshot
}

func fetch(client *http.Client, base string) (*snapshot, error) {
	body, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	snap := &snapshot{}
	if snap.metrics, err = parseMetrics(body); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	if err := getJSON(client, base+"/v1/pool", &snap.pool); err != nil {
		return nil, err
	}
	return snap, nil
}

func get(client *http.Client, url string) (io.ReadCloser, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

func getJSON(client *http.Client, url string, v any) error {
	body, err := get(client, url)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("%s: decode: %w", url, err)
	}
	return nil
}

// parseMetrics reads a Prometheus text exposition into a flat
// series → value map, keys kept verbatim including label sets
// (`specserve_pool_evictions_total{reason="lru"}`). Lines that are not
// a series and a value are skipped; a read error is returned, so a
// truncated page is not mistaken for a complete one.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// stageHistogram rebuilds one stage's histogram from the
// specserve_stage_duration_seconds series, taking the bucket bounds
// from the le labels on the page. ok is false when the server exposed
// no series for the stage (it omits stages with no observations).
func stageHistogram(mx map[string]float64, stage string) (h obs.HistogramSnapshot, ok bool) {
	const name = "specserve_stage_duration_seconds"
	count, ok := mx[name+`_count{stage="`+stage+`"}`]
	if !ok {
		return h, false
	}
	h.Count = uint64(count)
	h.SumNs = secondsToNs(mx[name+`_sum{stage="`+stage+`"}`])
	prefix := name + `_bucket{stage="` + stage + `",le="`
	for key, v := range mx {
		le, found := strings.CutPrefix(key, prefix)
		le, closed := strings.CutSuffix(le, `"}`)
		if !found || !closed {
			continue
		}
		upper := int64(-1) // +Inf
		if le != "+Inf" {
			sec, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			upper = secondsToNs(sec)
		}
		h.Buckets = append(h.Buckets, obs.Bucket{UpperNs: upper, Cumulative: uint64(v)})
	}
	// Ascending bounds, +Inf last.
	sort.Slice(h.Buckets, func(i, j int) bool {
		a, b := h.Buckets[i].UpperNs, h.Buckets[j].UpperNs
		return b < 0 && a >= 0 || a >= 0 && a < b
	})
	return h, true
}

// secondsToNs inverts the exposition's seconds rendering of a
// nanosecond count.
func secondsToNs(sec float64) int64 {
	return int64(math.Round(sec * 1e9))
}

// ratio renders hits/(hits+misses) as a percentage, "-" when idle.
func ratio(hits, misses float64) string {
	total := hits + misses
	if total == 0 {
		return "    -"
	}
	return fmt.Sprintf("%5.1f%%", 100*hits/total)
}

func ms(ns int64) string {
	return fmt.Sprintf("%8.2fms", float64(ns)/1e6)
}

func approxSize(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func shortFp(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	if fp == "" {
		return "-"
	}
	return fp
}

func render(w io.Writer, addr string, s *snapshot) {
	mx := s.metrics
	n := func(series string) int64 { return int64(mx[series]) }
	fmt.Fprintf(w, "specserve top — %s   up %.1fs   analyses %d\n\n",
		addr, mx["specserve_uptime_seconds"], n("specserve_registered_analyses"))

	fmt.Fprintf(w, "requests   total %-8d 304 %-6d 4xx %-6d 5xx %-6d busy-rejects %-6d in-flight %d\n",
		n("specserve_requests_total"), n("specserve_not_modified_total"),
		n("specserve_client_errors_total"), n("specserve_server_errors_total"),
		n("specserve_rejected_busy_total"), n("specserve_in_flight_requests"))
	fmt.Fprintf(w, "pool       %d/%d engines   builds %-6d hits %-6d misses %-6d joins %-6d hit ratio %s\n",
		n("specserve_pool_engines"), n("specserve_pool_capacity"), n("specserve_engine_builds_total"),
		n("specserve_pool_hits_total"), n("specserve_pool_misses_total"), n("specserve_pool_joins_total"),
		strings.TrimSpace(ratio(mx["specserve_pool_hits_total"], mx["specserve_pool_misses_total"])))
	fmt.Fprintf(w, "evictions  lru %.0f   build_failed %.0f   ingestion_failed %.0f\n",
		mx[`specserve_pool_evictions_total{reason="lru"}`],
		mx[`specserve_pool_evictions_total{reason="build_failed"}`],
		mx[`specserve_pool_evictions_total{reason="ingestion_failed"}`])
	if _, live := mx["specserve_generation"]; live {
		fmt.Fprintf(w, "live       generation %-6d appends %-6d appended runs %d\n",
			n("specserve_generation"), n("specserve_appends_total"), n("specserve_appended_runs_total"))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-28s %-12s %4s %6s %6s %7s %6s %9s %10s\n",
		"POOL SCOPE", "FPRINT", "GEN", "AGE", "HITS", "RUNS", "MEMOS", "MEMO H/M", "~BYTES")
	for _, e := range s.pool.Engines { // server-sorted by canonical filter
		name := e.Filter
		if name == "" {
			name = "(all)"
		}
		if e.Building {
			fmt.Fprintf(w, "%-28s %-12s %4s %6d %6d %s\n",
				name, "building…", "-", e.AgeRequests, e.Hits, "")
			continue
		}
		fmt.Fprintf(w, "%-28s %-12s %4d %6d %6d %7d %6d %4d/%-4d %10s\n",
			name, shortFp(e.Fingerprint), e.Generation, e.AgeRequests, e.Hits, e.RunsIngested,
			e.MemoEntries, e.MemoHits, e.MemoMisses, approxSize(e.ApproxBytes))
	}
	if len(s.pool.Engines) == 0 {
		fmt.Fprintf(w, "  (no resident engines yet)\n")
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s\n", "STAGE", "COUNT", "P50", "P95", "P99")
	rows := 0
	for _, stage := range obs.Stages {
		h, ok := stageHistogram(mx, stage)
		if !ok {
			continue
		}
		rows++
		fmt.Fprintf(w, "%-14s %8d %10s %10s %10s\n", stage, h.Count,
			ms(h.QuantileNs(0.50)), ms(h.QuantileNs(0.95)), ms(h.QuantileNs(0.99)))
	}
	if rows == 0 {
		fmt.Fprintf(w, "  (no stage samples yet)\n")
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-16s %7s   %s\n", "CACHE", "RATIO", "HITS/MISSES")
	cacheRow := func(name, hitsKey, missesKey string) {
		h, m := mx[hitsKey], mx[missesKey]
		fmt.Fprintf(w, "%-16s %7s   %.0f/%.0f\n", name, ratio(h, m), h, m)
	}
	cacheRow("memo", "specserve_memo_hits_total", "specserve_memo_misses_total")
	cacheRow("parse",
		"specserve_parse_cache_hits_total", "specserve_parse_cache_misses_total")

	if _, audit := mx["specserve_audit_records_total"]; audit {
		fmt.Fprintf(w, "\naudit      records %-8d queue %.0f   flushes batch %.0f / interval %.0f / close %.0f\n",
			n("specserve_audit_records_total"),
			mx["specserve_audit_queue_depth"],
			mx[`specserve_audit_queue_flushes_total{reason="batch"}`],
			mx[`specserve_audit_queue_flushes_total{reason="interval"}`],
			mx[`specserve_audit_queue_flushes_total{reason="close"}`])
	}
}
