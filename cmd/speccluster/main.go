// Command speccluster groups the machine configurations of a corpus
// into clusters and prints their phenotypes: dominant vendor, median
// cores and efficiency, year range.
//
// The corpus flags are the ones every tool shares (internal/cliutil):
// -in corpus directories or synth:<seed> specs, -cache, -filter,
// -workers. Clustering runs over the comparable slice of the corpus —
// the same 676-run population the paper's trend analyses use.
//
// The clustering flags are a thin skin over the parameter schema the
// "clusters"/"cluster-profiles"/"cluster-sweep" registry analyses
// declare: each flag becomes a typed parameter assignment, resolved
// and validated exactly as specanalyze -p and the specserve query
// string are, and the computation itself runs through the shared
// engine path (so a bad value is a flag error here and a 400 there,
// never a panic).
//
// -algo picks the algorithm. "kmeans" (default) is k-means++ with
// deterministic seeding: -seed seeds both the synthetic corpus and the
// clustering RNG, and -k 0 auto-selects k by the best silhouette over
// k = 2…8. "hac" is hierarchical agglomerative clustering under
// -linkage single/complete/average; cut the dendrogram either at -k
// clusters or at the -cut distance threshold. "minibatch" is seeded
// mini-batch k-means (-batch sets the sample size): kmeans with
// stochastic batched updates, seeded from -seed on every run, so its
// partition, like the others', is a function of corpus and flags.
// -features restricts the standardized feature vector; -sweep prints
// the elbow sweep (within-cluster SSE + silhouette per k); -json emits
// everything machine-readable, including per-run assignments.
//
// Usage:
//
//	speccluster [-in corpus/]... [-filter expr] [-k 4] [-json]
//	speccluster -algo hac -linkage complete -cut 2.5
//	speccluster -features score,cores,year -sweep
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
)

// output is the -json document: the shared Result shape plus the
// phenotype profiles and, when requested, the elbow sweep.
type output struct {
	cluster.Result
	Profiles []cluster.Profile    `json:"profiles"`
	Sweep    []cluster.SweepPoint `json:"sweep,omitempty"`
}

// resolve builds the parameter bag of one registered analysis from raw
// flag values, exiting with a flag-style error on anything the schema
// rejects.
func resolve(name string, raw map[string]string) core.Request {
	reg, ok := analysis.Lookup(name)
	if !ok {
		log.Fatalf("analysis %q not registered", name)
	}
	params, err := reg.Params.Resolve(raw)
	if err != nil {
		log.Fatal(err)
	}
	return core.Request{Name: name, Params: params}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("speccluster: ")
	corpus := cliutil.RegisterCorpusFlags(flag.CommandLine)
	k := flag.Int("k", 0, "cluster count (0 = auto-select by silhouette over k = 2…8; hac requires -k or -cut)")
	algo := flag.String("algo", "kmeans", "clustering algorithm: kmeans, hac, or minibatch")
	linkage := flag.String("linkage", "average", "hac linkage: single, complete, or average")
	cut := flag.Float64("cut", 0, "hac dendrogram distance threshold (overrides -k)")
	batch := flag.Int("batch", 128, "minibatch sample size per iteration")
	features := flag.String("features", "",
		"comma-separated feature subset (default all: "+strings.Join(cluster.FeatureNames(), ",")+")")
	sweep := flag.Bool("sweep", false, "also compute the k sweep (SSE + silhouette, k = 2…8)")
	asJSON := flag.Bool("json", false, "emit JSON (with per-run assignments) instead of text")
	flag.Parse()

	src, err := corpus.Source()
	if err != nil {
		log.Fatal(err)
	}
	// The flags become one parameter bag shared by "clusters" and
	// "cluster-profiles" (same schema, same partition), so both report
	// the same scenario.
	raw := map[string]string{
		"k":        strconv.Itoa(*k),
		"algo":     *algo,
		"linkage":  *linkage,
		"cut":      strconv.FormatFloat(*cut, 'g', -1, 64),
		"batch":    strconv.Itoa(*batch),
		"seed":     strconv.FormatInt(corpus.Seed, 10),
		"features": *features,
	}
	reqs := []core.Request{
		resolve("clusters", raw),
		resolve("cluster-profiles", raw),
	}
	// The sweep rides along whenever it informed the partition: asked
	// for explicitly, or implicitly behind auto-k — matching the JSON
	// document this command has always emitted in its default mode.
	needSweep := *sweep || (*algo != "hac" && *k == 0)
	if needSweep {
		reqs = append(reqs, resolve("cluster-sweep", map[string]string{
			"seed":     raw["seed"],
			"features": raw["features"],
			"kmax":     "8",
		}))
	}

	eng := core.New(core.WithSource(src), core.WithWorkers(corpus.Workers))
	results, err := eng.RunRequests(reqs...)
	if err != nil {
		log.Fatal(err)
	}
	out := output{
		Result:   results[0].Value.(cluster.Result),
		Profiles: results[1].Value.(cluster.ProfileSet).Profiles,
	}
	if needSweep {
		out.Sweep = results[2].Value.([]cluster.SweepPoint)
	}
	if out.K == 0 {
		n := 0
		if ds, err := eng.Dataset(); err == nil { // memoized: a cache read
			n = len(ds.Comparable)
		}
		log.Fatalf("only %d comparable runs — nothing to cluster", n)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Fprintf(w, "%d comparable runs over features [%s]\n\n",
		len(out.Assignments), strings.Join(out.Features, ", "))
	if *sweep {
		fmt.Fprint(w, cluster.SweepTable(out.Sweep))
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, cluster.ProfileSet{
		Algo:       out.Algo,
		K:          out.K,
		Silhouette: out.Silhouette,
		Profiles:   out.Profiles,
	}.String())
}
