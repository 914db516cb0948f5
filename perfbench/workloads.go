package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	live bool // server runs with -live (POST /v1/runs)
	pool int  // -pool: resident scope engines
	// prepare makes workload-specific inputs before any server starts.
	prepare func(b *bench) error
	// drive runs the measured loop on b.srv for b.cfg.duration.
	drive func(b *bench) (*samples, error)
	// verify checks end state after the loop (counted into b.checks).
	verify func(b *bench)
	// replayKeys are the analyses the in-process layer replay computes.
	replayKeys func(b *bench) []key
}

var workloads = map[string]*workload{
	// warm-read is the steady state of a dashboard: a fixed working set
	// of analyses and scopes, every one already computed, so requests are
	// memo hits that pay for the serve plane and JSON encoding, and one in
	// four is a 304 revalidation. A cache of encoded responses would move
	// this workload and not explore.
	"warm-read": {
		name:       "warm-read",
		pool:       32,
		drive:      driveWarmRead,
		verify:     func(*bench) {},
		replayKeys: func(*bench) []key { return warmKeys[:len(warmKeys)-1] },
	},
	// explore is an analyst sweeping parameters and slices: every request
	// is a parameterization or filter scope not seen before, so it misses
	// the memo (clustering compute) or the engine pool (scope build,
	// ingest from the parse cache, classification). It bypasses any
	// response cache and measures the compute and ingest layers.
	"explore": {
		name:       "explore",
		pool:       8,
		drive:      driveExplore,
		verify:     verifyExplore,
		replayKeys: func(b *bench) []key { return exploreKeys(b.cfg.seed, 12) },
	},
	// live-append is a corpus that grows while it is read: a new result
	// file is posted ten times a second on a fixed schedule, and after
	// each post a reader re-reads a working set with If-None-Match, so
	// every append rolls every ETag and turns the next reads into
	// recomputes (or re-encodes) over a larger corpus. It measures the
	// append plane, memo invalidation and online (mini-batch) clustering.
	"live-append": {
		name:       "live-append",
		live:       true,
		pool:       32,
		prepare:    prepareAppends,
		drive:      driveLiveAppend,
		verify:     verifyLiveAppend,
		replayKeys: func(*bench) []key { return liveKeys },
	},
}

func analysisKey(name string, params ...param) key { return key{name: name, params: params} }

// warmKeys is every workload's set-up working set and warm-read's
// request mix: each registered analysis with default parameters, one
// parameterized clustering, three filter scopes, and the text report
// (last, so replayKeys can drop it).
var warmKeys = []key{
	analysisKey("funnel"), analysisKey("fig1"), analysisKey("fig2"), analysisKey("fig3"),
	analysisKey("fig4"), analysisKey("fig5"), analysisKey("fig6"), analysisKey("submissions"),
	analysisKey("growth"), analysisKey("top100"), analysisKey("idlehistory"), analysisKey("features"),
	analysisKey("trends"), analysisKey("ep"), analysisKey("confound"), analysisKey("changepoint"),
	analysisKey("table1"), analysisKey("clusters"), analysisKey("cluster-profiles"),
	analysisKey("cluster-sweep"), analysisKey("clusters", param{"k", "4"}),
	{name: "fig3", filter: "vendor=amd"}, {name: "fig3", filter: "vendor=intel"},
	{name: "fig2", filter: "since=2015"},
	{}, // the text report
}

// liveKeys is what live-append re-reads after each append: analyses of
// every pipeline stage, a scoped one, and online clustering.
var liveKeys = []key{
	analysisKey("funnel"), analysisKey("fig1"), analysisKey("fig3"), analysisKey("fig5"),
	analysisKey("growth"), analysisKey("top100"), analysisKey("ep"),
	analysisKey("clusters", param{"algo", "minibatch"}, param{"k", "6"}),
	{name: "fig3", filter: "vendor=amd"},
}

// samples is what a measured loop observed. Each request's checks are
// counted through bench.check.
type samples struct {
	latencies []int64 // ns, one per completed request
	ends      []int64 // ns from the loop's start to each request's completion
	elapsed   time.Duration
}

func (s *samples) add(lat time.Duration, start time.Time) {
	s.latencies = append(s.latencies, lat.Nanoseconds())
	s.ends = append(s.ends, time.Since(start).Nanoseconds())
}

// closedLoop is one client that sends request i as soon as request i-1
// has completed, until the deadline. step performs and checks request i
// and returns its latency; an error means the request could not be
// made at all and aborts the run. One client keeps client-side
// contention for the server's CPUs, which on a two-CPU machine
// dominated the run-to-run spread, out of the measurement.
func (b *bench) closedLoop(step func(i int, buf *bytes.Buffer) (time.Duration, error)) (*samples, error) {
	var buf bytes.Buffer
	s := &samples{}
	start := time.Now()
	deadline := start.Add(b.cfg.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		d, err := step(i, &buf)
		if err != nil {
			return nil, err
		}
		s.add(d, start)
	}
	s.elapsed = time.Since(start)
	return s, nil
}

// clientRand is a seeded request stream.
func clientRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// driveWarmRead walks a seeded permutation of warmKeys round and round.
// Every fourth request revalidates with the ETag from set-up and must
// get a 304; the rest must get the set-up body byte for byte.
func driveWarmRead(b *bench) (*samples, error) {
	perm := clientRand(b.cfg.seed, 0).Perm(len(warmKeys))
	return b.closedLoop(func(i int, buf *bytes.Buffer) (time.Duration, error) {
		k := warmKeys[perm[i%len(warmKeys)]]
		want := b.warm[k.path()]
		etag := ""
		if i%4 == 3 {
			etag = want.etag
		}
		r, err := do(context.Background(), b.client, http.MethodGet, b.srv.base+k.path(), etag, nil, buf)
		if err != nil {
			return 0, err
		}
		b.noteTrace(r)
		if etag != "" {
			b.check(r.status == http.StatusNotModified && r.etag == etag && buf.Len() == 0,
				"warm-read %s revalidation: status %d", k.path(), r.status)
		} else {
			b.check(r.status == http.StatusOK && r.etag == want.etag && bytes.Equal(buf.Bytes(), want.body),
				"warm-read %s: status %d, body or ETag differs from set-up", k.path(), r.status)
		}
		return r.dur, nil
	})
}

// explorer generates explore's request stream.
type explorer struct {
	r     *rand.Rand
	start int // where the walk through the filter scopes begins
}

// scopes is how many distinct filter scopes explore walks through:
// 3 vendors × 10 first years × 8 last years.
const scopes = 240

func newExplorer(seed int64) *explorer {
	r := clientRand(seed, 100)
	return &explorer{r: r, start: r.IntN(scopes)}
}

// exploreKeys returns the first n requests of explore's stream.
func exploreKeys(seed int64, n int) []key {
	e := newExplorer(seed)
	keys := make([]key, n)
	for i := range keys {
		keys[i] = e.key(i)
	}
	return keys
}

// key is request i, in cycles of five: a fresh k-means partition, a
// fresh filter scope, a fresh cluster profile set, another fresh scope,
// a fresh k sweep. Kinds and k values cycle the same way for every
// seed; the seed picks the clustering seeds and where the walk through
// the scopes starts. The walk's stride is coprime to scopes, so no
// scope repeats within 240 scope requests.
func (e *explorer) key(i int) key {
	clusterSeed := param{"seed", strconv.FormatUint(1+e.r.Uint64N(1<<40), 10)}
	k := param{"k", strconv.Itoa(3 + (i/5)%6)}
	switch i % 5 {
	case 0:
		return analysisKey("clusters", k, clusterSeed)
	case 2:
		return analysisKey("cluster-profiles", k, clusterSeed)
	case 4:
		return analysisKey("cluster-sweep", param{"kmax", "5"}, clusterSeed)
	}
	j := i/5*2 + i%5/3 // scope requests so far
	s := (e.start + 77*j) % scopes
	names := []string{"fig2", "fig3", "fig5", "funnel", "ep"}
	vendors := []string{"amd", "intel", "amd|intel"}
	return key{
		name:   names[j%len(names)],
		filter: fmt.Sprintf("vendor=%s,year=%d-%d", vendors[s%3], 2005+s/3%10, 2016+s/30),
	}
}

// exploreChecked is how many of explore's first requests verifyExplore
// re-checks: one cycle, every kind.
const exploreChecked = 5

// driveExplore sends a seeded stream of never-repeated
// parameterizations and scopes (-pool 8, so scopes are also evicted);
// every response must be a 200 naming the analysis.
func driveExplore(b *bench) (*samples, error) {
	e := newExplorer(b.cfg.seed)
	b.exploreKept = map[int][]byte{}
	return b.closedLoop(func(i int, buf *bytes.Buffer) (time.Duration, error) {
		k := e.key(i)
		resp, err := do(context.Background(), b.client, http.MethodGet, b.srv.base+k.path(), "", nil, buf)
		if err != nil {
			return 0, err
		}
		b.noteTrace(resp)
		b.check(resp.status == http.StatusOK && nameIs(buf.Bytes(), k.name),
			"explore %s: status %d: %.200s", k.path(), resp.status, buf.Bytes())
		if i < exploreChecked {
			b.exploreKept[i] = bytes.Clone(buf.Bytes())
		}
		return resp.dur, nil
	})
}

func nameIs(body []byte, name string) bool {
	var resp struct {
		Name string `json:"name"`
	}
	return json.Unmarshal(body, &resp) == nil && resp.Name == name
}

// verifyExplore recomputes the sampled requests with specanalyze and
// re-requests them: the value served during the loop must equal the
// independent computation, and a repeat must return the same bytes.
func verifyExplore(b *bench) {
	var buf bytes.Buffer
	for i, k := range exploreKeys(b.cfg.seed, exploreChecked) {
		body, ok := b.exploreKept[i]
		if !b.check(ok, "explore sample %d was never requested", i) {
			continue
		}
		refs, err := b.references([]key{k}, b.corpus)
		if !b.check(err == nil, "explore reference %s: %v", k.path(), err) {
			continue
		}
		b.refs[k.path()] = refs[k.path()]
		b.check(b.matchesRef(k, body), "explore %s: value differs from specanalyze", k.path())
		r, err := do(context.Background(), b.client, http.MethodGet, b.srv.base+k.path(), "", nil, &buf)
		b.check(err == nil && r.status == http.StatusOK && bytes.Equal(buf.Bytes(), body),
			"explore %s: repeat request differs", k.path())
	}
}

// prepareAppends generates a second corpus with another seed; live-append
// posts its result files in a seeded order.
func prepareAppends(b *bench) error {
	dir := filepath.Join(b.cfg.work, "appendsrc")
	if _, err := b.tool("specgen", "-out", dir, "-seed", strconv.FormatInt(b.cfg.seed+1_000_003, 10)); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".txt" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	order := clientRand(b.cfg.seed, 200).Perm(len(names))
	b.appendPool = make([][]byte, len(names))
	for i, j := range order {
		data, err := os.ReadFile(filepath.Join(dir, names[j]))
		if err != nil {
			return err
		}
		b.appendPool[i] = data
	}
	return nil
}

// Live-append runs one cycle every cycleEvery, whatever the server's
// speed, so every seed posts the same number of runs and sends the same
// number of reads: an append, a read of every liveKeys entry, and
// revalidations of the first revalidations of those reads.
const (
	cycleEvery    = 100 * time.Millisecond
	revalidations = 3
)

// driveLiveAppend starts cycle n at start+n*cycleEvery (open loop) and
// sends its requests back to back. The append is timed from when its
// cycle was due, so a cycle that overran delays the next and that wait
// counts; the reads are timed from when they were sent. After an append
// every key must answer 200 under a new ETag; revalidating an ETag
// received since must answer 304.
func driveLiveAppend(b *bench) (*samples, error) {
	etags := map[string]string{}
	for _, k := range liveKeys {
		etags[k.path()] = b.warm[k.path()].etag
	}
	var buf bytes.Buffer
	s := &samples{}
	start := time.Now()
	deadline := start.Add(b.cfg.duration)
	for n := 0; n < len(b.appendPool); n++ {
		due := start.Add(time.Duration(n) * cycleEvery)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		r, err := do(context.Background(), b.client, http.MethodPost, b.srv.base+"/v1/runs", "", b.appendPool[n], &buf)
		if err != nil {
			return nil, err
		}
		b.noteTrace(r)
		s.add(time.Since(due), start)
		var ack struct {
			Generation uint64 `json:"generation"`
		}
		ok := r.status == http.StatusOK && json.Unmarshal(buf.Bytes(), &ack) == nil
		b.check(ok && ack.Generation == uint64(n+1), "append %d: status %d: %.200s", n, r.status, buf.Bytes())
		b.appended = n + 1

		for i := 0; i < len(liveKeys)+revalidations; i++ {
			k := liveKeys[i%len(liveKeys)]
			etag := etags[k.path()]
			r, err := do(context.Background(), b.client, http.MethodGet, b.srv.base+k.path(), etag, nil, &buf)
			if err != nil {
				return nil, err
			}
			b.noteTrace(r)
			s.add(r.dur, start)
			if i < len(liveKeys) {
				b.check(r.status == http.StatusOK && r.etag != "" && r.etag != etag && nameIs(buf.Bytes(), k.name),
					"live-append %s after append %d: status %d, want 200 under a new ETag", k.path(), n, r.status)
				etags[k.path()] = r.etag
			} else {
				b.check(r.status == http.StatusNotModified && r.etag == etag,
					"live-append %s revalidation: status %d, want 304", k.path(), r.status)
			}
		}
	}
	s.elapsed = time.Since(start)
	return s, nil
}

// appendFinalKeys are re-read after live-append and compared with
// specanalyze over the base corpus plus every posted file; they are
// independent of append order, unlike online clustering.
var appendFinalKeys = []key{analysisKey("funnel"), analysisKey("fig3"), analysisKey("ep"), analysisKey("growth")}

func verifyLiveAppend(b *bench) {
	dir := filepath.Join(b.cfg.work, "appended")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.check(false, "appended dir: %v", err)
		return
	}
	// File names sort in post order, the order the server absorbed them.
	for j := 0; j < b.appended; j++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("a%06d.txt", j)), b.appendPool[j], 0o644); err != nil {
			b.check(false, "write appended file: %v", err)
			return
		}
	}
	refs, err := b.references(appendFinalKeys, b.corpus, dir)
	if !b.check(err == nil, "append references: %v", err) {
		return
	}
	b.refs = refs
	var buf bytes.Buffer
	for _, k := range appendFinalKeys {
		r, err := do(context.Background(), b.client, http.MethodGet, b.srv.base+k.path(), "", nil, &buf)
		b.check(err == nil && r.status == http.StatusOK && b.matchesRef(k, buf.Bytes()),
			"live-append %s after %d appends: differs from specanalyze over corpus+appended", k.path(), b.appended)
	}
}
