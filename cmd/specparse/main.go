// Command specparse parses a directory of SPECpower_ssj2008 result
// files, applies the paper's two-stage filter funnel, and emits the
// dataset as CSV (one row per run, with all derived metrics) or, with
// -format json, as a JSON array of full runs (report.JSONRun).
//
// Usage:
//
//	specparse -in corpus/ [-stage comparable|parsed|raw] [-format csv|json] [-o dataset.csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specparse: ")
	in := flag.String("in", "corpus", "directory of .txt result files")
	stage := flag.String("stage", "comparable", "which pipeline stage to emit: raw, parsed, or comparable")
	out := flag.String("o", "-", "output path (- = stdout)")
	format := flag.String("format", "csv", "output format: csv (flattened metrics) or json (full runs)")
	workers := flag.Int("workers", 0, "parallel parsers (0 = GOMAXPROCS)")
	flag.Parse()

	eng := core.New(
		core.WithSource(core.DirSource{Dir: *in}),
		core.WithWorkers(*workers))
	ds, err := eng.Dataset()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprint(os.Stderr, ds.Funnel.String())

	var runs []*model.Run
	switch *stage {
	case "raw":
		runs = ds.Raw
	case "parsed":
		runs = ds.Parsed
	case "comparable":
		runs = ds.Comparable
	default:
		log.Fatalf("unknown stage %q (want raw, parsed, or comparable)", *stage)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "csv":
		if err := analysis.WriteRunsCSV(w, runs); err != nil {
			log.Fatal(err)
		}
	case "json":
		out := make([]report.JSONRun, len(runs))
		for i, r := range runs {
			out[i] = report.ToJSONRun(r)
		}
		body, err := core.EncodeJSON(out)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := w.Write(body); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown format %q (want csv or json)", *format)
	}
}
