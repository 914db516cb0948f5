package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

type spanJSON struct {
	Name       string     `json:"name"`
	DurationNs int64      `json:"duration_ns"`
	Children   []spanJSON `json:"children"`
}

type traceJSON struct {
	TraceID string   `json:"trace_id"`
	Seq     uint64   `json:"seq"`
	Root    spanJSON `json:"root"`
}

// harvestTraces copies the server's trace ring into b.traces. The ring
// holds 4096 traces: called after set-up and after the loop, it keeps
// the set-up round (cold computes and ingests) and the loop's last
// requests.
func (b *bench) harvestTraces() error {
	var buf bytes.Buffer
	r, err := do(context.Background(), b.client, http.MethodGet, b.srv.base+"/v1/traces", "", nil, &buf)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("/v1/traces: status %d", r.status)
	}
	var resp struct {
		Traces []traceJSON `json:"traces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return fmt.Errorf("/v1/traces: %w", err)
	}
	for _, t := range resp.Traces {
		if servedRoot(t.Root.Name) {
			b.traces[t.Seq] = t
		}
	}
	return nil
}

// servedRoot keeps analysis, report and append requests, dropping the
// harness's own health, metrics and trace polls.
func servedRoot(name string) bool {
	return strings.HasPrefix(name, "GET /v1/analyses/") || name == "GET /v1/report" || name == "POST /v1/runs"
}

// spanLayer maps a root child span to the layer it times.
func spanLayer(name string) string {
	switch name {
	case "ingest", "compute", "append", "parse":
		return "engine"
	case "serialize", "render":
		return "encode"
	default: // queue_wait, build
		return "serve"
	}
}

// layerMetrics fills the per-layer metrics: server counters and stage
// times over the measured server's lifetime (/metrics), the mean layer
// time per traced request (/v1/traces), the client-side overhead of
// each request beyond the server's own span, and the in-process replay
// of the workload's analyses (perfbench/layers). It stops the server.
func (b *bench) layerMetrics(m map[string]metric) error {
	mt, err := scrape(b.client, b.srv.base)
	if err != nil {
		return err
	}
	if err := b.harvestTraces(); err != nil {
		return err
	}
	if err := b.srv.stop(); err != nil {
		return err
	}
	b.srv = nil

	counts := []struct{ name, series string }{
		{"requests", "specserve_requests_total"},
		{"not_modified", "specserve_not_modified_total"},
		{"memo_hits", "specserve_memo_hits_total"},
		{"memo_misses", "specserve_memo_misses_total"},
		{"pool_hits", "specserve_pool_hits_total"},
		{"pool_misses", "specserve_pool_misses_total"},
		{"pool_evictions", `specserve_pool_evictions_total{reason="lru"}`},
		{"engine_builds", "specserve_engine_builds_total"},
		{"ingests", "specserve_ingests_total"},
		{"parse_cache_hits", "specserve_parse_cache_hits_total"},
		{"parse_cache_misses", "specserve_parse_cache_misses_total"},
		{"appended_runs", "specserve_appended_runs_total"},
		{"gc_cycles", "specserve_runtime_gc_cycles_total"},
	}
	for _, c := range counts {
		m[c.name] = metric{mt[c.series], "count"}
	}
	ratio := 0.0
	if hits, misses := mt["specserve_memo_hits_total"], mt["specserve_memo_misses_total"]; hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m["memo_hit_ratio"] = metric{ratio, "ratio"}
	m["heap_inuse_mb"] = metric{mt["specserve_runtime_heap_inuse_bytes"] / (1 << 20), "MB"}
	for _, stage := range []string{"queue_wait", "engine_build", "ingest", "compute", "serialize"} {
		sum := mt[`specserve_stage_duration_seconds_sum{stage="`+stage+`"}`]
		m["stage_"+stage+"_ms"] = metric{sum * 1e3, "ms"}
	}

	layerNs := map[string]int64{}
	var overheadNs int64
	var matched int
	for _, t := range b.traces {
		children := int64(0)
		for _, c := range t.Root.Children {
			layerNs[spanLayer(c.Name)] += c.DurationNs
			children += c.DurationNs
		}
		layerNs["serve"] += max(0, t.Root.DurationNs-children)
		if d, ok := b.clientLat[t.TraceID]; ok {
			overheadNs += d.Nanoseconds() - t.Root.DurationNs
			matched++
		}
	}
	if len(b.traces) == 0 || matched == 0 {
		return fmt.Errorf("no traced requests harvested (%d traces, %d matched)", len(b.traces), matched)
	}
	n := float64(len(b.traces))
	m["traced_requests"] = metric{n, "count"}
	m["span_serve_us"] = metric{float64(layerNs["serve"]) / n / 1e3, "us"}
	m["span_engine_us"] = metric{float64(layerNs["engine"]) / n / 1e3, "us"}
	m["span_encode_us"] = metric{float64(layerNs["encode"]) / n / 1e3, "us"}
	m["client_overhead_us"] = metric{float64(overheadNs) / float64(matched) / 1e3, "us"}

	return b.replayLayers(m)
}

// replayKey is the wire form of a key for perfbench/layers.
type replayKey struct {
	Name   string      `json:"name"`
	Filter string      `json:"filter,omitempty"`
	Params [][2]string `json:"params,omitempty"`
}

// replayLayers runs perfbench/layers over the run's corpus and the
// workload's analyses and merges its layer timings into m.
func (b *bench) replayLayers(m map[string]metric) error {
	keys := b.w.replayKeys(b)
	wire := make([]replayKey, len(keys))
	for i, k := range keys {
		wire[i] = replayKey{Name: k.name, Filter: k.filter}
		for _, p := range k.params {
			wire[i].Params = append(wire[i].Params, [2]string{p.k, p.v})
		}
	}
	data, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	keysFile := filepath.Join(b.cfg.work, "replay-keys.json")
	if err := os.WriteFile(keysFile, data, 0o644); err != nil {
		return err
	}
	out, err := b.tool("layers", "-corpus", b.corpus, "-seed", strconv.FormatInt(b.cfg.seed, 10), "-keys", keysFile)
	if err != nil {
		return err
	}
	var layers map[string]float64
	if err := json.Unmarshal(out, &layers); err != nil {
		return fmt.Errorf("layers output: %w", err)
	}
	for _, name := range []string{"synth_gen", "dir_parse", "gob_decode", "classify", "compute", "encode"} {
		v, ok := layers[name+"_ms"]
		if !ok {
			return fmt.Errorf("layers output lacks %s_ms", name)
		}
		m["layer_"+name+"_ms"] = metric{v, "ms"}
	}
	return nil
}
