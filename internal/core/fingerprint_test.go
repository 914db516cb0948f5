package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/synth"
)

func TestSynthSourceFingerprint(t *testing.T) {
	a := SynthSource{Options: synth.DefaultOptions()}
	fp1, err := SourceFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := SourceFingerprint(SynthSource{Options: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Error("equal synth options fingerprint differently")
	}
	opt := synth.DefaultOptions()
	opt.Seed++
	fp3, err := SourceFingerprint(SynthSource{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Error("different seeds share a fingerprint")
	}
}

func TestSliceSourceFingerprint(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	fp1, _ := SourceFingerprint(SliceSource(runs))
	fp2, _ := SourceFingerprint(SliceSource(runs))
	if fp1 != fp2 {
		t.Error("same slice fingerprints differently")
	}
	fp3, _ := SourceFingerprint(SliceSource(runs[1:]))
	if fp3 == fp1 {
		t.Error("different slices share a fingerprint")
	}
}

func TestDirSourceFingerprintTracksFiles(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	fp1, err := SourceFingerprint(DirSource{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := SourceFingerprint(DirSource{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Error("unchanged directory fingerprints differently")
	}
	// A cached source over the same files shares the identity: the
	// cache changes how runs load, not which runs exist.
	fpCached, err := SourceFingerprint(CachedSource{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if fpCached != fp1 {
		t.Error("CachedSource fingerprints differently from DirSource over the same files")
	}
	// Touching one file (newer mtime) changes the fingerprint.
	victim := filepath.Join(dir, runs[0].ID+".txt")
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(victim, future, future); err != nil {
		t.Fatal(err)
	}
	fp3, err := SourceFingerprint(DirSource{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Error("touched file did not change the fingerprint")
	}
	// A missing directory is an error, not a silent empty identity.
	if _, err := SourceFingerprint(DirSource{Dir: filepath.Join(dir, "nope")}); err == nil {
		t.Error("missing directory should fail to fingerprint")
	}
}

func TestCombinatorFingerprints(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	inner := SliceSource(runs)
	innerFP, _ := SourceFingerprint(inner)
	f1, err := SourceFingerprint(FilterSource{Inner: inner, Desc: "vendor=amd"})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := SourceFingerprint(FilterSource{Inner: inner, Desc: "vendor=intel"})
	if f1 == f2 {
		t.Error("different filter descs share a fingerprint")
	}
	if f1 == innerFP {
		t.Error("filter shares its inner fingerprint")
	}
	m1, err := SourceFingerprint(MergeSource{inner, inner})
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := SourceFingerprint(MergeSource{inner})
	if m1 == m2 || m1 == innerFP {
		t.Error("merge fingerprint does not reflect its children")
	}
}

// fallbackSource implements only Source, never Fingerprinter.
type fallbackSource struct{ name string }

func (f fallbackSource) Name() string                           { return f.name }
func (f fallbackSource) Each(int, func(*model.Run) error) error { return nil }

func TestSourceFingerprintFallsBackToName(t *testing.T) {
	fp1, err := SourceFingerprint(fallbackSource{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	fp2, _ := SourceFingerprint(fallbackSource{name: "b"})
	if fp1 == "" || fp1 == fp2 {
		t.Errorf("fallback fingerprints: %q vs %q", fp1, fp2)
	}
}
