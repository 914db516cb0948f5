// Command specvet runs the repo's custom static-analysis suite
// (internal/lint) over module packages and fails on any unsuppressed
// finding. It is the mechanical gate behind the determinism and
// registry invariants: no wall clock, global randomness, environment
// reads, or unordered concurrency reachable from a registered
// analysis; no map iteration order escaping into output; no
// registrations outside init; no re-parsing of typed parameters; no
// exported internal API that only tests use.
//
// The driver is self-contained on go/ast and go/types (this
// environment has no golang.org/x/tools, so the go vet -vettool route
// is unavailable); run it directly:
//
//	specvet ./...
//	specvet -list
//	specvet -run nodeterminism,mapsort ./internal/cluster
//	specvet -allowed ./...
//
// Exit status 1 means unsuppressed findings (or a malformed/stale
// //lint:allow directive); 2 means the load itself failed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specvet: ")
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer subset (default all)")
	allowed := flag.Bool("allowed", false, "also print suppressed findings with their reasons")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*run)
	if err != nil {
		log.Fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		exitLoad(err)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		exitLoad(err)
	}
	dirs, err := lint.ExpandPatterns(cwd, patterns)
	if err != nil {
		exitLoad(err)
	}
	prog, err := lint.Load(root, dirs)
	if err != nil {
		exitLoad(err)
	}

	diags := lint.Run(prog, analyzers)
	failing := lint.Unsuppressed(diags)
	for _, d := range diags {
		if d.Suppressed && *allowed {
			fmt.Println(d)
		}
	}
	for _, d := range failing {
		fmt.Println(d)
	}
	if len(failing) > 0 {
		fmt.Printf("%d finding(s)\n", len(failing))
		os.Exit(1)
	}
}

func selectAnalyzers(csv string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if csv == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}

func exitLoad(err error) {
	log.Print(err)
	os.Exit(2)
}
