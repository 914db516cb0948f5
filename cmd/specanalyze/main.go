// Command specanalyze runs the paper's longitudinal study and prints
// figures and statistics as a terminal report or JSON.
//
// -in selects a corpus and is repeatable: each value is either a parsed
// corpus directory (e.g. produced by specgen, streamed through the
// core.DirSource worker pool) or "synth:<seed>" for an in-memory
// synthetic corpus; several -in flags are merged into one stream.
// Without -in, the default calibrated corpus is generated in memory.
// -cache keeps a gob parse cache next to each corpus directory so
// repeat runs skip the text parser; -filter slices the corpus with a
// predicate expression ("vendor=AMD,since=2021" — see core.ParseFilter).
// -only selects individual analyses by registry name (see -list);
// -json switches to machine-readable output. Analyses that declare
// typed parameters (see -list, or GET /v1/analyses on specserve) take
// per-run values through the repeatable -p name.key=value flag —
// assignments are validated against the declared schema, exactly as
// the HTTP server validates query parameters. The corpus flags are
// shared with specserve (internal/cliutil), which serves the same
// analyses over HTTP instead of a one-shot report.
//
// Usage:
//
//	specanalyze [-in corpus/]... [-in synth:14] [-cache] [-filter expr]
//	            [-seed 14] [-only fig3,funnel] [-json] [-list]
//	            [-p clusters.k=5] [-p clusters.linkage=average]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	_ "repro/internal/cluster" // registers the clustering analyses
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specanalyze: ")
	corpus := cliutil.RegisterCorpusFlags(flag.CommandLine)
	params := cliutil.RegisterParamFlags(flag.CommandLine)
	only := flag.String("only", "", "comma-separated analysis names to run (empty = full report)")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of text")
	list := flag.Bool("list", false, "list registered analyses (and their parameters) and exit")
	flag.Parse()

	if *list {
		for _, name := range analysis.Names() {
			reg, _ := analysis.Lookup(name)
			fmt.Printf("%-16s %s\n", name, reg.Description)
			for _, par := range reg.Params {
				line := fmt.Sprintf("  -p %s.%s (%s", name, par.Name, par.Kind)
				if def := par.DefaultString(); def != "" {
					line += ", default " + def
				}
				line += ")"
				if par.Description != "" {
					line += "  " + par.Description
				}
				fmt.Println(line)
			}
		}
		return
	}

	src, err := corpus.Source()
	if err != nil {
		log.Fatal(err)
	}
	eng := core.New(core.WithSource(src), core.WithWorkers(corpus.Workers))

	var names []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	reqs, err := params.Requests(names)
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	switch {
	case *asJSON:
		if err := eng.WriteJSONRequests(w, reqs...); err != nil {
			log.Fatal(err)
		}
	case len(names) > 0:
		results, err := eng.RunRequests(reqs...)
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			if err := core.WriteAnalysisText(w, res); err != nil {
				log.Fatal(err)
			}
		}
	default:
		// The curated text report renders fixed sections with default
		// parameters; silently ignoring -p there would be worse than
		// refusing.
		if len(params) > 0 {
			log.Fatal("-p needs -only or -json (the full text report always renders defaults)")
		}
		if err := eng.WriteReport(w); err != nil {
			log.Fatal(err)
		}
	}
}
