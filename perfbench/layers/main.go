// Command layers replays a workload's analyses in-process, one library
// layer at a time, and prints the median time of each layer over a few
// repetitions as one JSON object (milliseconds):
//
//	synth_gen   generating the seed's corpus in memory (internal/synth)
//	dir_parse   streaming and parsing the corpus directory (core.DirSource)
//	gob_decode  the same stream through the warm parse cache (core.CachedSource)
//	classify    building each requested scope's dataset (analysis.BuildDataset)
//	compute     each requested analysis's registered function
//	encode      encoding each result the way specserve serves it
//
// perfbench runs it after a traced run, with the keys that run requested:
//
//	layers -corpus DIR -seed N -keys keys.json
//
// The timings come from clocks around calls into each layer, so they
// need no instrumentation inside the program.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	_ "repro/internal/cluster" // registers the clustering analyses
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// key is one requested analysis, as perfbench writes it.
type key struct {
	Name   string      `json:"name"`
	Filter string      `json:"filter,omitempty"`
	Params [][2]string `json:"params,omitempty"`
}

// response mirrors the body specserve encodes for an analysis.
type response struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Filter      string `json:"filter,omitempty"`
	Params      string `json:"params,omitempty"`
	Value       any    `json:"value"`
}

const reps = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("layers: ")
	corpus := flag.String("corpus", "", "corpus directory (with its parse cache already written)")
	seed := flag.Int64("seed", 0, "seed the corpus was generated with")
	keysPath := flag.String("keys", "", "JSON file listing the analyses to replay")
	flag.Parse()

	data, err := os.ReadFile(*keysPath)
	if err != nil {
		log.Fatal(err)
	}
	var keys []key
	if err := json.Unmarshal(data, &keys); err != nil {
		log.Fatalf("%s: %v", *keysPath, err)
	}
	if *corpus == "" || len(keys) == 0 {
		log.Fatal("need -corpus and a non-empty -keys file")
	}

	times := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		if err := replay(*corpus, *seed, keys, times); err != nil {
			log.Fatal(err)
		}
	}
	out := map[string]float64{}
	for name, ms := range times {
		sort.Float64s(ms)
		out[name+"_ms"] = ms[len(ms)/2]
	}
	line, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

// replay times each layer once and appends the milliseconds to times.
func replay(corpus string, seed int64, keys []key, times map[string][]float64) error {
	lap := func(name string, start time.Time) {
		times[name] = append(times[name], float64(time.Since(start).Nanoseconds())/1e6)
	}

	start := time.Now()
	opt := synth.DefaultOptions()
	opt.Seed = seed
	if _, err := synth.Generate(opt); err != nil {
		return err
	}
	lap("synth_gen", start)

	var runs []*model.Run
	start = time.Now()
	err := core.DirSource{Dir: corpus}.Each(0, func(r *model.Run) error {
		runs = append(runs, r)
		return nil
	})
	if err != nil {
		return err
	}
	lap("dir_parse", start)

	start = time.Now()
	if err := (core.CachedSource{Dir: corpus}).Each(0, func(*model.Run) error { return nil }); err != nil {
		return err
	}
	lap("gob_decode", start)

	start = time.Now()
	scopes := map[string]*analysis.Dataset{}
	for _, k := range keys {
		if _, ok := scopes[k.Filter]; ok {
			continue
		}
		sel := runs
		if k.Filter != "" {
			keep, err := core.ParseFilter(k.Filter)
			if err != nil {
				return err
			}
			sel = nil
			for _, r := range runs {
				if keep(r) {
					sel = append(sel, r)
				}
			}
		}
		scopes[k.Filter] = analysis.BuildDataset(sel)
	}
	lap("classify", start)

	results := make([]response, len(keys))
	start = time.Now()
	for i, k := range keys {
		reg, ok := analysis.Lookup(k.Name)
		if !ok {
			return fmt.Errorf("unknown analysis %q", k.Name)
		}
		params := reg.DefaultParams()
		if len(k.Params) > 0 {
			raw := map[string]string{}
			for _, p := range k.Params {
				raw[p[0]] = p[1]
			}
			var err error
			if params, err = reg.Params.Resolve(raw); err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
		}
		ds := scopes[k.Filter]
		if reg.Static {
			ds = nil
		}
		v, err := reg.Func(ds, params)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		results[i] = response{Name: k.Name, Description: reg.Description, Filter: k.Filter,
			Params: params.Canonical(), Value: v}
	}
	lap("compute", start)

	start = time.Now()
	var buf bytes.Buffer
	for _, res := range results {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	lap("encode", start)
	return nil
}
