package cliutil

import (
	"flag"
	"strings"
	"testing"

	_ "repro/internal/cluster" // the parameterized analyses the tests select
	"repro/internal/core"
	"repro/internal/synth"
)

func parse(t *testing.T, args ...string) *CorpusFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCorpusFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func sourceOf(t *testing.T, args ...string) core.Source {
	t.Helper()
	src, err := parse(t, args...).Source()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestDefaultSourceIsSeededSynth(t *testing.T) {
	src := sourceOf(t)
	syn, ok := src.(core.SynthSource)
	if !ok {
		t.Fatalf("default source is %T, want SynthSource", src)
	}
	if syn.Options.Seed != synth.DefaultSeed {
		t.Errorf("seed = %d, want default %d", syn.Options.Seed, synth.DefaultSeed)
	}
	if s := sourceOf(t, "-seed", "99").(core.SynthSource); s.Options.Seed != 99 {
		t.Errorf("-seed 99 gave seed %d", s.Options.Seed)
	}
}

func TestInFlagVariants(t *testing.T) {
	if src := sourceOf(t, "-in", "corpus/"); src.Name() != "dir(corpus/)" {
		t.Errorf("single dir -in gave %s", src.Name())
	}
	if src := sourceOf(t, "-in", "corpus/", "-cache"); !strings.HasPrefix(src.Name(), "cached(") {
		t.Errorf("-cache gave %s", src.Name())
	}
	if src := sourceOf(t, "-in", "synth:42"); src.(core.SynthSource).Options.Seed != 42 {
		t.Errorf("synth:42 gave %s", src.Name())
	}
	// Repeated -in values merge in order.
	src := sourceOf(t, "-in", "a/", "-in", "synth:7", "-in", "b/")
	merged, ok := src.(core.MergeSource)
	if !ok || len(merged) != 3 {
		t.Fatalf("three -in gave %T %s", src, src.Name())
	}
	if name := src.Name(); !strings.Contains(name, "dir(a/)") ||
		!strings.Contains(name, "synth(seed=7)") || !strings.Contains(name, "dir(b/)") {
		t.Errorf("merged name = %s", name)
	}
	// An empty -in value is ignored (unset shell variables).
	if src := sourceOf(t, "-in", ""); src.Name() != (core.SynthSource{Options: synth.DefaultOptions()}).Name() {
		t.Errorf("empty -in gave %s", src.Name())
	}
}

func TestFilterWrapsSource(t *testing.T) {
	src := sourceOf(t, "-filter", "vendor=AMD,since=2021")
	if name := src.Name(); !strings.HasPrefix(name, "filter(vendor=AMD,since=2021") {
		t.Errorf("filtered source name = %s", name)
	}
	if _, err := parse(t, "-filter", "color=red").Source(); err == nil {
		t.Error("bad -filter expression should fail")
	}
	if !strings.Contains(parse(t, "-filter", "color=red").Filter, "color") {
		t.Error("Filter field not populated")
	}
}

func TestBadSynthSeed(t *testing.T) {
	if _, err := parse(t, "-in", "synth:banana").Source(); err == nil ||
		!strings.Contains(err.Error(), "synth seed") {
		t.Errorf("synth:banana should fail mentioning the seed, got %v", err)
	}
}

func TestWorkersFlag(t *testing.T) {
	if c := parse(t, "-workers", "8"); c.Workers != 8 {
		t.Errorf("Workers = %d", c.Workers)
	}
}

func parseParams(t *testing.T, args ...string) (ParamFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{}) // silence usage on expected errors
	p := RegisterParamFlags(fs)
	return p, fs.Parse(args)
}

func TestParamFlagsCollect(t *testing.T) {
	p, err := parseParams(t,
		"-p", "clusters.k=5",
		"-p", "clusters.linkage=average",
		"-p", "cluster-sweep.kmax=6")
	if err != nil {
		t.Fatal(err)
	}
	if p["clusters"]["k"] != "5" || p["clusters"]["linkage"] != "average" ||
		p["cluster-sweep"]["kmax"] != "6" {
		t.Fatalf("collected %v", p)
	}
	// Malformed assignments fail at flag-parse time.
	for _, bad := range []string{"clusters", "clusters.k", ".k=5", "clusters.=5"} {
		if _, err := parseParams(t, "-p", bad); err == nil {
			t.Errorf("-p %q should fail", bad)
		}
	}
}

func TestParamFlagsRequests(t *testing.T) {
	p, err := parseParams(t, "-p", "clusters.k=4")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := p.Requests([]string{"funnel", "clusters"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0].Name != "funnel" || reqs[1].Name != "clusters" {
		t.Fatalf("reqs = %+v", reqs)
	}
	if !reqs[0].Params.IsZero() {
		t.Error("funnel request carries params")
	}
	if got := reqs[1].Params.Canonical(); got != "k=4" {
		t.Errorf("clusters canonical = %q, want k=4", got)
	}
	// Empty selection = every registered analysis; the assignment still
	// lands on its analysis.
	reqs, err = p.Requests(nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, req := range reqs {
		if req.Name == "clusters" && req.Params.Canonical() == "k=4" {
			found = true
		}
	}
	if !found {
		t.Error("all-analyses selection dropped the clusters assignment")
	}
}

func TestParamFlagsRequestsErrors(t *testing.T) {
	// A value the schema rejects is a CLI error, mirroring the HTTP 400.
	p, err := parseParams(t, "-p", "clusters.k=banana")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Requests([]string{"clusters"}); err == nil ||
		!strings.Contains(err.Error(), "integer") {
		t.Errorf("bad value error = %v", err)
	}
	// Unknown keys are rejected against the schema.
	p, _ = parseParams(t, "-p", "clusters.bogus=1")
	if _, err := p.Requests([]string{"clusters"}); err == nil ||
		!strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("unknown key error = %v", err)
	}
	// Assignments for an unselected analysis error instead of being
	// silently dropped.
	p, _ = parseParams(t, "-p", "clusters.k=4")
	if _, err := p.Requests([]string{"funnel"}); err == nil ||
		!strings.Contains(err.Error(), "not among") {
		t.Errorf("unselected analysis error = %v", err)
	}
	// Params for a name that is not registered at all.
	p, _ = parseParams(t, "-p", "nope.k=4")
	if _, err := p.Requests([]string{"nope"}); err == nil {
		t.Error("unregistered analysis with params should fail")
	}
}

func TestDirsFiltersSynthSpecs(t *testing.T) {
	c := parse(t, "-in", "a/", "-in", "synth:7", "-in", "b/")
	got := c.Dirs()
	want := []string{"a/", "b/"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Dirs() = %v, want %v", got, want)
	}
	if d := parse(t, "-in", "synth:7").Dirs(); len(d) != 0 {
		t.Errorf("Dirs() over pure synth = %v, want empty", d)
	}
	if d := parse(t).Dirs(); len(d) != 0 {
		t.Errorf("Dirs() with no -in = %v, want empty", d)
	}
}
