package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/synth"
)

func smallOptions() synth.Options {
	return synth.Options{
		Seed: 7,
		Plan: []synth.YearPlan{
			{Year: 2009, Parsed: 12, AMDShare: 0.25, LinuxShare: 0.02, Multi: 3, TwoSocketShare: 0.7},
			{Year: 2019, Parsed: 12, AMDShare: 0.30, LinuxShare: 0.30, Multi: 2, TwoSocketShare: 0.7},
		},
		Defects: synth.DefectPlan{NotAccepted: 2, AmbiguousDate: 1},
	}
}

func TestGenerateWriteLoadRoundTrip(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 4); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(runs) {
		t.Fatalf("wrote %d files for %d runs", len(files), len(runs))
	}
	loaded := New(WithSource(DirSource{Dir: dir}), WithWorkers(4))
	loadedDS, err := loaded.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	// The funnel must be identical whether built from in-memory runs or
	// from the rendered-and-reparsed corpus (the D1 closed loop).
	direct, err := New(WithSource(SliceSource(runs))).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := funnelKey(direct), funnelKey(loadedDS); a != b {
		t.Errorf("funnel changed across render/parse: %v vs %v", a, b)
	}
	if len(loadedDS.Raw) != len(runs) {
		t.Errorf("raw count %d vs %d", len(loadedDS.Raw), len(runs))
	}
}

// funnelKey flattens a funnel for comparison.
func funnelKey(ds *analysis.Dataset) [3]int {
	f := ds.Funnel
	return [3]int{f.Raw, f.Parsed, f.Comparable}
}

func TestWriteCorpusSequentialAndParallelAgree(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq, par := t.TempDir(), t.TempDir()
	if err := WriteCorpus(seq, runs, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCorpus(par, runs, 8); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		a, err := os.ReadFile(filepath.Join(seq, r.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(par, r.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between sequential and parallel write", r.ID)
		}
	}
}

func TestWriteReport(t *testing.T) {
	eng := New()
	var buf bytes.Buffer
	if err := eng.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Filter funnel", "1017", "960", "676",
		"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Table I", "top-100", "correlation matrix",
		"paper: 44.2", "×2.09",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestWriteReportBytes pins the full text report of the default
// synthetic corpus: every section, its order and its formatting.
func TestWriteReportBytes(t *testing.T) {
	h := sha256.New()
	if err := New().WriteReport(h); err != nil {
		t.Fatal(err)
	}
	const want = "5ab256e7bda977f4d4b32dfb1adebc724faa3ba5c422067d93012a4a376abee3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("report sha256 = %s, want %s", got, want)
	}
}

// TestDefaultEngineFunnel pins the zero-option engine to the paper's
// funnel (the contract DefaultStudy used to carry before the deprecated
// Study shims were removed).
func TestDefaultEngineFunnel(t *testing.T) {
	ds, err := New().Dataset()
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Funnel
	if f.Raw != 1017 || f.Parsed != 960 || f.Comparable != 676 {
		t.Fatalf("funnel %v", f)
	}
}
