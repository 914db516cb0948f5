package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// key names one served resource: an analysis with its filter scope and
// query parameters, or the text report when name is empty.
type key struct {
	name   string
	filter string
	params []param // in query order
}

type param struct{ k, v string }

func (k key) path() string {
	q := url.Values{}
	if k.filter != "" {
		q.Set("filter", k.filter)
	}
	for _, p := range k.params {
		q.Set(p.k, p.v)
	}
	p := "/v1/report"
	if k.name != "" {
		p = "/v1/analyses/" + k.name
	}
	if len(q) > 0 {
		p += "?" + q.Encode()
	}
	return p
}

// warmEntry is what the last set-up round served for a warm key.
type warmEntry struct {
	body []byte
	etag string
}

// bench holds one invocation's inputs, server and bookkeeping.
type bench struct {
	w      *workload
	cfg    config
	client *http.Client
	corpus string
	srv    *server

	refs map[string][]byte    // key path → compact reference value (raw bytes for the report)
	warm map[string]warmEntry // key path → last set-up's response

	appendPool  [][]byte       // result files live-append posts, in post order
	appended    int            // how many of appendPool the measured loop posted
	exploreKept map[int][]byte // explore's sampled response bodies, by request index

	checks, checkFailures int

	traces    map[uint64]traceJSON     // harvested server traces by sequence number
	clientLat map[string]time.Duration // trace id → client-observed latency
}

func newBench(w *workload, cfg config) (*bench, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		w:         w,
		cfg:       cfg,
		client:    newClient(),
		corpus:    filepath.Join(cfg.work, "corpus"),
		warm:      map[string]warmEntry{},
		traces:    map[uint64]traceJSON{},
		clientLat: map[string]time.Duration{},
	}
	if _, err := b.tool("specgen", "-out", b.corpus, "-seed", strconv.FormatInt(cfg.seed, 10)); err != nil {
		return nil, err
	}
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, err
		}
	}
	refs, err := b.references(warmKeys, b.corpus)
	if err != nil {
		return nil, err
	}
	b.refs = refs
	return b, nil
}

func (b *bench) close() {
	if b.srv != nil {
		if err := b.srv.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		b.srv = nil
	}
	b.client.CloseIdleConnections()
}

// tool runs one of the repository's command line tools to completion
// and returns its standard output.
func (b *bench) tool(name string, args ...string) ([]byte, error) {
	cmd := exec.Command(filepath.Join(b.cfg.bin, name), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// serverArgs is the specserve command line for this workload and mode.
func (b *bench) serverArgs() []string {
	args := []string{"-in", b.corpus, "-cache", "-pool", strconv.Itoa(b.w.pool)}
	if b.w.live {
		args = append(args, "-live")
	}
	if b.cfg.traced {
		// Large enough to keep a whole set-up round and a long sample of
		// the measured loop between harvests.
		args = append(args, "-trace-buf", "4096")
	} else {
		args = append(args, "-trace-buf", "0")
	}
	return args
}

// setup boots a fresh server and warms the working set; the returned
// duration is the set-up time. The served bodies are checked against
// the references after the clock stops.
func (b *bench) setup(round int) (time.Duration, error) {
	start := time.Now()
	srv, err := startServer(filepath.Join(b.cfg.bin, "specserve"),
		filepath.Join(b.cfg.work, fmt.Sprintf("server-%d.log", round)), b.serverArgs())
	if err != nil {
		return 0, err
	}
	b.srv = srv
	type got struct {
		r    response
		body []byte
	}
	served := make([]got, len(warmKeys))
	var buf bytes.Buffer
	for i, k := range warmKeys {
		r, err := do(context.Background(), b.client, http.MethodGet, srv.base+k.path(), "", nil, &buf)
		if err != nil {
			return 0, fmt.Errorf("set-up %s: %w", k.path(), err)
		}
		served[i] = got{r, bytes.Clone(buf.Bytes())}
	}
	d := time.Since(start)
	for i, k := range warmKeys {
		g := served[i]
		b.check(g.r.status == http.StatusOK && g.r.etag != "", "set-up %s: status %d etag %q", k.path(), g.r.status, g.r.etag)
		b.check(b.matchesRef(k, g.body), "set-up %s: body differs from specanalyze", k.path())
		b.warm[k.path()] = warmEntry{body: g.body, etag: g.r.etag}
	}
	return d, nil
}

// check counts one correctness check and reports a failure to stderr.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.checks++
	if !ok {
		b.checkFailures++
		if b.checkFailures <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// references computes the expected value of every key with specanalyze
// over ins (merged in order), independently of the server: one
// invocation for all default-parameter analyses, one per scoped or
// parameterized key, and one for the text report.
func (b *bench) references(keys []key, ins ...string) (map[string][]byte, error) {
	base := make([]string, 0, 2*len(ins)+1)
	for _, in := range ins {
		base = append(base, "-in", in)
	}
	base = append(base, "-cache")
	refs := map[string][]byte{}
	var plain []key
	for _, k := range keys {
		switch {
		case k.name == "":
			out, err := b.tool("specanalyze", base...)
			if err != nil {
				return nil, err
			}
			refs[k.path()] = out
		case k.filter == "" && len(k.params) == 0:
			plain = append(plain, k)
		default:
			if err := b.analyze(refs, base, []key{k}); err != nil {
				return nil, err
			}
		}
	}
	if len(plain) > 0 {
		if err := b.analyze(refs, base, plain); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// analyze runs one specanalyze -json invocation for keys that share a
// filter and stores each result's compact value under the key's path.
func (b *bench) analyze(refs map[string][]byte, base []string, keys []key) error {
	args := append([]string(nil), base...)
	if keys[0].filter != "" {
		args = append(args, "-filter", keys[0].filter)
	}
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.name
		for _, p := range k.params {
			args = append(args, "-p", k.name+"."+p.k+"="+p.v)
		}
	}
	args = append(args, "-json", "-only", strings.Join(names, ","))
	out, err := b.tool("specanalyze", args...)
	if err != nil {
		return err
	}
	var results []struct {
		Name  string          `json:"name"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(out, &results); err != nil {
		return fmt.Errorf("specanalyze output: %w", err)
	}
	if len(results) != len(keys) {
		return fmt.Errorf("specanalyze returned %d results for %d analyses", len(results), len(keys))
	}
	for i, k := range keys {
		v, err := compact(results[i].Value)
		if err != nil {
			return err
		}
		refs[k.path()] = v
	}
	return nil
}

// matchesRef reports whether a served 200 body carries the reference
// value for k (the report must match byte for byte).
func (b *bench) matchesRef(k key, body []byte) bool {
	ref, ok := b.refs[k.path()]
	if !ok {
		return false
	}
	if k.name == "" {
		return bytes.Equal(body, ref)
	}
	v, err := servedValue(body, k.name)
	return err == nil && bytes.Equal(v, ref)
}

// servedValue extracts the compact "value" of an analysis response and
// checks it names the requested analysis.
func servedValue(body []byte, name string) ([]byte, error) {
	var resp struct {
		Name  string          `json:"name"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if resp.Name != name {
		return nil, fmt.Errorf("response names %q, want %q", resp.Name, name)
	}
	return compact(resp.Value)
}

func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// noteTrace records the client-observed latency of a traced request,
// keyed by the trace id the server echoed in its Traceparent header.
func (b *bench) noteTrace(r response) {
	if !b.cfg.traced || r.traceparent == "" {
		return
	}
	parts := strings.Split(r.traceparent, "-")
	if len(parts) != 4 {
		return
	}
	b.clientLat[parts[1]] = r.dur
}
