package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/synth"
)

func TestSliceSourceRoundTrip(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	src := SliceSource(runs)
	var got int
	err = src.Each(0, func(r *model.Run) error {
		if r != runs[got] {
			t.Fatalf("run %d delivered out of order", got)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(runs) {
		t.Fatalf("yielded %d of %d runs", got, len(runs))
	}
	// The engine over the same slice reproduces BuildDataset exactly.
	ds, err := New(WithSource(src)).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Raw) != len(runs) {
		t.Fatalf("raw %d vs %d", len(ds.Raw), len(runs))
	}
	// A yield error stops the stream.
	stop := errors.New("stop")
	n := 0
	err = src.Each(0, func(*model.Run) error {
		n++
		if n == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 3 {
		t.Fatalf("err=%v after %d yields, want stop after 3", err, n)
	}
}

func TestDirSourceMissingDir(t *testing.T) {
	src := DirSource{Dir: filepath.Join(t.TempDir(), "nope")}
	if err := src.Each(0, func(*model.Run) error { return nil }); err == nil {
		t.Error("missing dir should error")
	}
	if _, err := New(WithSource(src)).Dataset(); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Errorf("engine error should name the source, got %v", err)
	}
}

func TestDirSourceEmptyDir(t *testing.T) {
	ds, err := New(WithSource(DirSource{Dir: t.TempDir()})).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if f := ds.Funnel; f.Raw != 0 || f.Parsed != 0 || f.Comparable != 0 {
		t.Errorf("empty dir funnel = %v", f)
	}
}

// TestDirSourceDeterministicError: with several corrupt files and many
// workers, the reported error is always the alphabetically first bad
// file.
func TestDirSourceDeterministicError(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aa_bad.txt", "mm_bad.txt", "zz_bad.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a report"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		err := DirSource{Dir: dir}.Each(8, func(*model.Run) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "aa_bad.txt") {
			t.Fatalf("round %d: err = %v, want the first bad file (aa_bad.txt)", round, err)
		}
	}
}

// TestDirSourceStreamingBound verifies the streaming memory contract:
// ingestion never holds more than workers parsed runs outside the
// consumer, however slow the consumer is.
func TestDirSourceStreamingBound(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	const workers = 3
	var held, maxHeld atomic.Int64
	src := DirSource{
		Dir: dir,
		trackHeld: func(delta int) {
			h := held.Add(int64(delta))
			for {
				m := maxHeld.Load()
				if h <= m || maxHeld.CompareAndSwap(m, h) {
					break
				}
			}
		},
	}
	count := 0
	err = src.Each(workers, func(*model.Run) error {
		// A deliberately slow consumer lets the worker pool race ahead
		// as far as it ever will.
		for i := 0; i < 10000; i++ {
			_ = i * i
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(runs) {
		t.Fatalf("yielded %d of %d runs", count, len(runs))
	}
	if got := maxHeld.Load(); got > workers {
		t.Errorf("source held %d parsed runs at once, streaming bound is %d", got, workers)
	}
	if held.Load() != 0 {
		t.Errorf("source still holds %d runs after Each returned", held.Load())
	}
}

// TestDirSourceNestedCorpus: sharded layouts (files split across
// subdirectories, mixed-case extensions) stream completely and
// deterministically.
func TestDirSourceNestedCorpus(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	flat := t.TempDir()
	if err := WriteCorpus(flat, runs, 0); err != nil {
		t.Fatal(err)
	}
	// Shard the flat corpus into nested/<i%3>/, uppercasing every third
	// extension, with a decoy non-result file alongside.
	nested := t.TempDir()
	files, err := filepath.Glob(filepath.Join(flat, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		shard := filepath.Join(nested, fmt.Sprint(i%3))
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		if i%3 == 0 {
			name = strings.TrimSuffix(name, ".txt") + ".TXT"
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(nested, "README.md"), []byte("not a result"), 0o644); err != nil {
		t.Fatal(err)
	}
	collect := func(workers int) map[string]bool {
		ids := map[string]bool{}
		err := DirSource{Dir: nested}.Each(workers, func(r *model.Run) error {
			ids[r.ID] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	got := collect(4)
	if len(got) != len(runs) {
		t.Fatalf("nested corpus yielded %d of %d runs", len(got), len(runs))
	}
	for _, r := range runs {
		if !got[r.ID] {
			t.Errorf("run %s missing from nested stream", r.ID)
		}
	}
	// Sequential and parallel walks agree.
	if seq := collect(1); len(seq) != len(got) {
		t.Errorf("sequential walk yielded %d, parallel %d", len(seq), len(got))
	}
}

// TestDirSourceOrder: parallel ingestion delivers runs in sorted
// file-name order, matching the sequential path.
func TestDirSourceOrder(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	collect := func(workers int) []string {
		var ids []string
		err := DirSource{Dir: dir}.Each(workers, func(r *model.Run) error {
			ids = append(ids, r.ID)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	seq, par := collect(1), collect(8)
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("order differs at %d: %s vs %s", i, seq[i], par[i])
		}
	}
}
