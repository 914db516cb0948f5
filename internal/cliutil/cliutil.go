// Package cliutil holds the flag wiring shared by the command line
// tools: specanalyze and specserve accept the same
// -in/-seed/-workers/-cache/-filter corpus flags and build their
// core.Source through the same helper, so the binaries cannot drift.
// ParamFlags adds the repeatable -p name.key=value analysis-parameter
// flag (registered by specanalyze; specserve takes the same parameters
// as query keys, both resolved against the same declared schemas).
package cliutil

import (
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/synth"
)

// CorpusFlags collects the shared corpus-selection flags after
// flag.Parse. Zero values select the default in-memory synthetic
// corpus.
type CorpusFlags struct {
	// Ins are the -in values in order: corpus directories and
	// "synth:<seed>" specs, merged into one stream.
	Ins []string
	// Seed generates the in-memory corpus when Ins is empty.
	Seed int64
	// Workers bounds parsing and analysis parallelism (0 = GOMAXPROCS).
	Workers int
	// Cache keeps a gob parse cache next to each corpus directory.
	Cache bool
	// Filter slices the corpus with a core.ParseFilter expression.
	Filter string
}

// insFlag adapts CorpusFlags.Ins to flag.Value for repeatable -in.
type insFlag CorpusFlags

func (f *insFlag) String() string { return strings.Join(f.Ins, ",") }

func (f *insFlag) Set(v string) error {
	// An empty -in (e.g. an unset shell variable) falls through to the
	// default in-memory corpus, as the usage string promises.
	if v != "" {
		f.Ins = append(f.Ins, v)
	}
	return nil
}

// RegisterCorpusFlags installs the shared corpus flags on fs (use
// flag.CommandLine in main) and returns the struct they populate.
func RegisterCorpusFlags(fs *flag.FlagSet) *CorpusFlags {
	c := &CorpusFlags{}
	fs.Var((*insFlag)(c), "in", "corpus directory or synth:<seed>; repeatable, merged in order (empty = generate in memory)")
	fs.Int64Var(&c.Seed, "seed", synth.DefaultSeed, "seed when generating in memory")
	fs.IntVar(&c.Workers, "workers", 0, "parallel parsers and analyses (0 = GOMAXPROCS)")
	fs.BoolVar(&c.Cache, "cache", false, "keep a gob parse cache next to each corpus directory")
	fs.StringVar(&c.Filter, "filter", "", "corpus slice, e.g. \"vendor=AMD,since=2021\" (keys: vendor, os, year, since)")
	return c
}

// Source builds the corpus source the flags describe: every -in merged
// in order (or the seeded in-memory corpus when none was given),
// cached when -cache is set, wrapped in the -filter slice when one was
// given.
func (c *CorpusFlags) Source() (core.Source, error) {
	var src core.Source
	switch len(c.Ins) {
	case 0:
		opt := synth.DefaultOptions()
		opt.Seed = c.Seed
		src = core.SynthSource{Options: opt}
	case 1:
		s, err := sourceFor(c.Ins[0], c.Cache)
		if err != nil {
			return nil, err
		}
		src = s
	default:
		merged := make(core.MergeSource, len(c.Ins))
		for i, in := range c.Ins {
			s, err := sourceFor(in, c.Cache)
			if err != nil {
				return nil, err
			}
			merged[i] = s
		}
		src = merged
	}
	if c.Filter != "" {
		keep, err := core.ParseFilter(c.Filter)
		if err != nil {
			return nil, err
		}
		src = core.FilterSource{Inner: src, Keep: keep, Desc: c.Filter}
	}
	return src, nil
}

// Dirs returns the -in values that name corpus directories —
// synth:<seed> specs excluded — in flag order. This is the set a live
// watcher (specserve -watch) can poll for new result files; an empty
// result means the corpus has no on-disk component to watch.
func (c *CorpusFlags) Dirs() []string {
	var dirs []string
	for _, in := range c.Ins {
		if !strings.HasPrefix(in, "synth:") {
			dirs = append(dirs, in)
		}
	}
	return dirs
}

// ParamFlags collects repeatable -p name.key=value analysis-parameter
// assignments, grouped by analysis name. The assignments resolve
// against each analysis's declared schema (analysis.Registration
// .Params), so the CLI rejects exactly what the HTTP server would 400.
type ParamFlags map[string]map[string]string

// String implements flag.Value.
func (p ParamFlags) String() string {
	var parts []string
	for name, raw := range p {
		for key, val := range raw {
			parts = append(parts, name+"."+key+"="+val)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Set implements flag.Value for one "name.key=value" assignment.
func (p ParamFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, ".")
	if !ok || name == "" {
		return fmt.Errorf("-p %q: want name.key=value (e.g. clusters.k=5)", v)
	}
	key, val, ok := strings.Cut(rest, "=")
	if !ok || key == "" {
		return fmt.Errorf("-p %q: want name.key=value (e.g. clusters.k=5)", v)
	}
	if p[name] == nil {
		p[name] = map[string]string{}
	}
	p[name][key] = val
	return nil
}

// RegisterParamFlags installs the repeatable -p flag on fs and returns
// the map it populates.
func RegisterParamFlags(fs *flag.FlagSet) ParamFlags {
	p := ParamFlags{}
	fs.Var(p, "p", "analysis parameter, name.key=value (repeatable), e.g. -p clusters.k=5")
	return p
}

// Requests builds engine requests for the named analyses (empty =
// every registered one, in registration order), resolving the
// collected -p assignments against each analysis's declared schema.
// Assignments naming an analysis outside the selection error rather
// than being silently dropped; unknown analysis names without
// assignments pass through so the engine reports them with its usual
// listing.
func (p ParamFlags) Requests(names []string) ([]core.Request, error) {
	if len(names) == 0 {
		names = analysis.Names()
	}
	selected := map[string]bool{}
	reqs := make([]core.Request, len(names))
	for i, name := range names {
		selected[name] = true
		reqs[i] = core.Request{Name: name}
		raw := p[name]
		if len(raw) == 0 {
			continue
		}
		reg, ok := analysis.Lookup(name)
		if !ok {
			return nil, &core.UnknownAnalysisError{Name: name, Available: analysis.SortedNames()}
		}
		params, err := reg.Params.Resolve(raw)
		if err != nil {
			return nil, fmt.Errorf("-p %s.*: %w", name, err)
		}
		reqs[i].Params = params
	}
	var strays []string
	for name := range p {
		if !selected[name] {
			strays = append(strays, name)
		}
	}
	if len(strays) > 0 {
		// Sorted so the error names the same stray assignment every run
		// — map iteration order must not pick which mistake is blamed.
		sort.Strings(strays)
		return nil, fmt.Errorf("-p %s.*: analysis %q is not among the analyses being run",
			strays[0], strings.Join(strays, ", "))
	}
	return reqs, nil
}

// sourceFor builds the source for one -in value: a corpus directory
// (cached when asked) or "synth:<seed>".
func sourceFor(in string, cache bool) (core.Source, error) {
	if spec, ok := strings.CutPrefix(in, "synth:"); ok {
		seed, err := strconv.ParseInt(spec, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-in %q: synth seed must be an integer", in)
		}
		opt := synth.DefaultOptions()
		opt.Seed = seed
		return core.SynthSource{Options: opt}, nil
	}
	if cache {
		return core.CachedSource{Dir: in}, nil
	}
	return core.DirSource{Dir: in}, nil
}
