package live

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// corpusDir writes n synthetic runs as result files and returns the
// directory plus the runs in ID order (the order WriteCorpus names
// files in).
func corpusDir(t *testing.T, n int) (string, []*model.Run) {
	t.Helper()
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < n {
		t.Fatalf("need %d runs, synth produced %d", n, len(runs))
	}
	runs = runs[:n]
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	return dir, runs
}

func runPath(dir string, r *model.Run) string {
	return filepath.Join(dir, r.ID+".txt")
}

func TestWatcherBaselineSuppressesExisting(t *testing.T) {
	dir, _ := corpusDir(t, 4)
	w := NewWatcher(dir)
	if err := w.Baseline(); err != nil {
		t.Fatal(err)
	}
	d, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("poll after baseline reported changes: %+v", d)
	}
}

func TestWatcherFirstPollWithoutBaselineReportsAll(t *testing.T) {
	dir, runs := corpusDir(t, 3)
	w := NewWatcher(dir)
	d, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != len(runs) || len(d.Modified) != 0 || len(d.Removed) != 0 {
		t.Fatalf("first poll: %+v, want %d added", d, len(runs))
	}
}

func TestWatcherClassifiesDeltas(t *testing.T) {
	dir, runs := corpusDir(t, 5)
	w := NewWatcher(dir)
	if err := w.Baseline(); err != nil {
		t.Fatal(err)
	}

	// Added: a new result file plus a non-result file that must be
	// invisible to the result-file predicate. The new file reuses an
	// existing body under a fresh name — content does not matter to the
	// watcher, only the path appearing.
	added := filepath.Join(dir, "zz-new-run.txt")
	src, err := os.ReadFile(runPath(dir, runs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(added, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Modified: bump one file's mtime without changing its size.
	modified := runPath(dir, runs[1])
	past := time.Unix(1700000000, 0)
	if err := os.Chtimes(modified, past, past); err != nil {
		t.Fatal(err)
	}

	// Removed: delete one file.
	removed := runPath(dir, runs[2])
	if err := os.Remove(removed); err != nil {
		t.Fatal(err)
	}

	d, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Added, []string{added}) {
		t.Errorf("Added = %v, want [%s]", d.Added, added)
	}
	if !reflect.DeepEqual(d.Modified, []string{modified}) {
		t.Errorf("Modified = %v, want [%s]", d.Modified, modified)
	}
	if !reflect.DeepEqual(d.Removed, []string{removed}) {
		t.Errorf("Removed = %v, want [%s]", d.Removed, removed)
	}

	// The next poll starts from the updated state: quiescent again.
	d, err = w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("second poll not empty: %+v", d)
	}
}

func TestWatcherErrorKeepsState(t *testing.T) {
	dir, runs := corpusDir(t, 2)
	gone := filepath.Join(t.TempDir(), "missing")
	w := NewWatcher(dir, gone)
	// Baseline fails on the missing directory; the watcher keeps nil
	// state, so after the directory problem is fixed a poll still sees
	// everything.
	if err := w.Baseline(); err == nil {
		t.Fatal("baseline over a missing directory succeeded")
	}
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != len(runs) {
		t.Fatalf("post-recovery poll Added = %v, want %d files", d.Added, len(runs))
	}
}

func TestWatcherMultipleDirs(t *testing.T) {
	dirA, runsA := corpusDir(t, 2)
	dirB, runsB := corpusDir(t, 3)
	w := NewWatcher(dirA, dirB)
	d, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != len(runsA)+len(runsB) {
		t.Fatalf("Added = %d files, want %d", len(d.Added), len(runsA)+len(runsB))
	}
}

func TestRunnerDrivesPolls(t *testing.T) {
	dir, runs := corpusDir(t, 3)
	w := NewWatcher(dir)
	if err := w.Baseline(); err != nil {
		t.Fatal(err)
	}

	ticks := make(chan time.Time)
	var deltas []Delta
	done := make(chan error, 1)
	r := &Runner{
		W:       w,
		Ticks:   ticks,
		OnDelta: func(d Delta) { deltas = append(deltas, d) },
	}
	go func() { done <- r.Run(context.Background()) }()

	// Tick 1: nothing changed — OnDelta must not fire. The synchronous
	// handshake is the tick send itself: Run only re-enters the select
	// after finishing the previous tick's poll and handler.
	ticks <- time.Time{}

	// Tick 2: one file removed.
	if err := os.Remove(runPath(dir, runs[0])); err != nil {
		t.Fatal(err)
	}
	ticks <- time.Time{}

	close(ticks)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(deltas) != 1 || len(deltas[0].Removed) != 1 {
		t.Fatalf("deltas = %+v, want one delta with one removal", deltas)
	}
}

func TestRunnerErrorDoesNotStop(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "corpus")
	w := NewWatcher(sub)

	ticks := make(chan time.Time)
	var errs []error
	var deltas []Delta
	// The tick send returns once Run has the tick, before it polls, so
	// the directory may only appear after OnPoll has seen the failure.
	polled := make(chan struct{}, 1)
	done := make(chan error, 1)
	r := &Runner{
		W:       w,
		Ticks:   ticks,
		OnDelta: func(d Delta) { deltas = append(deltas, d) },
		OnPoll: func(_ time.Time, err error) {
			if err != nil {
				errs = append(errs, err)
				polled <- struct{}{}
			}
		},
	}
	go func() { done <- r.Run(context.Background()) }()

	ticks <- time.Time{} // directory missing: error, keep going
	<-polled
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteCorpus(sub, runs[:1], 0); err != nil {
		t.Fatal(err)
	}
	ticks <- time.Time{} // recovered: the file reports as Added

	close(ticks)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want exactly one poll error", errs)
	}
	if len(deltas) != 1 || len(deltas[0].Added) != 1 {
		t.Fatalf("deltas = %+v, want one delta with one addition", deltas)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{W: NewWatcher(), Ticks: make(chan time.Time)}
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}
