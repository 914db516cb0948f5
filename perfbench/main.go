// Command perfbench is the repository's end-to-end benchmark. It boots
// the real specserve binary on a loopback port over a seeded synthetic
// corpus, drives one traffic mix against it for a fixed time, checks
// every response, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binaries and passes -bin and -work. The workloads
// (workloads.go says why each exists):
//
//	warm-read    closed loop over a warm working set: memo hits and 304s
//	explore      closed loop where every request is a fresh
//	             parameterization or filter scope: memo and pool misses
//	live-append  paced POST /v1/runs appends under revalidating readers
//
// With -trace 0 the server runs untraced and the result carries the
// end-to-end metrics. With -trace 1 the same workload is replayed with
// the server's tracing on and the result carries per-layer metrics:
// server counters and stage times from /metrics, span self times from
// /v1/traces, and an in-process replay of the workload's analyses
// through each library layer (perfbench/layers).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRounds is how many times a run boots and warms a server; setup_s
// is their median, and the last server stays up for the measured loop.
const setupRounds = 7

// slices is how many equal stretches of the measured loop the
// end-to-end metrics are computed over; each metric reports the median
// over the stretches, so a burst of outside load that spoils a few of
// them does not move it.
const slices = 10

func main() {
	workloadName := flag.String("workload", "", "warm-read, explore or live-append")
	seed := flag.Int64("seed", 1, "input seed: corpus, appended runs and request order")
	seconds := flag.Float64("seconds", 10, "length of the measured loop")
	traceMode := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	binDir := flag.String("bin", "", "directory holding specserve, specgen, specanalyze and layers")
	workRoot := flag.String("work", "", "scratch directory root (the run's subdirectory is removed at exit)")
	flag.Parse()
	// The harness shares the machine with the server it measures; fewer
	// collections of its own response buffers mean less noise in the
	// server's timings.
	debug.SetGCPercent(400)

	w, ok := workloads[*workloadName]
	if !ok || *binDir == "" || *workRoot == "" || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -bin DIR -work DIR -workload %v -seed N -seconds S -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	work := filepath.Join(*workRoot, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	res, err := run(w, config{
		bin:      *binDir,
		work:     work,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *traceMode == 1,
	})
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// config is one invocation's settings.
type config struct {
	bin, work string
	seed      int64
	duration  time.Duration
	traced    bool
}

// run prepares the inputs, measures set-up, drives the workload and
// assembles the result. An error means the benchmark itself could not
// run; a wrong answer from the program is a failed check instead.
func run(w *workload, cfg config) (*result, error) {
	b, err := newBench(w, cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()

	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if b.srv != nil {
			if err := b.srv.stop(); err != nil {
				return nil, err
			}
			b.srv = nil
		}
		d, err := b.setup(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if cfg.traced {
		if err := b.harvestTraces(); err != nil {
			return nil, err
		}
	}

	samples, err := w.drive(b)
	if err != nil {
		return nil, err
	}
	w.verify(b)

	res := &result{Metrics: map[string]metric{}}
	if cfg.traced {
		if err := b.layerMetrics(res.Metrics); err != nil {
			return nil, err
		}
	} else {
		if err := loopMetrics(res.Metrics, samples); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	// Every request the loop sent, every set-up response and every end
	// state check is one check.
	res.Attempted = b.checks
	res.Failed = b.checkFailures
	res.Correct = res.Failed == 0
	return res, nil
}

// loopMetrics computes latency percentiles and throughput for each of
// the loop's slices and stores the median over slices.
func loopMetrics(m map[string]metric, s *samples) error {
	var p50, p90, rate []float64
	width := s.elapsed.Nanoseconds() / slices
	for i := int64(0); i < slices; i++ {
		var lat []float64
		for j, end := range s.ends {
			if end >= i*width && (end < (i+1)*width || i == slices-1) {
				lat = append(lat, float64(s.latencies[j])/1e6)
			}
		}
		if len(lat) < 10 {
			return fmt.Errorf("only %d requests completed in slice %d of the loop", len(lat), i)
		}
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
		rate = append(rate, float64(len(lat))/(float64(width)/1e9))
	}
	m["latency_p50_ms"] = metric{median(p50), "ms"}
	m["latency_p90_ms"] = metric{median(p90), "ms"}
	m["throughput_rps"] = metric{median(rate), "1/s"}
	return nil
}
