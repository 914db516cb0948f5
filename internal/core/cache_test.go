package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/synth"
)

// cachedIDs streams the source and returns the IDs in delivery order.
func cachedIDs(t *testing.T, src Source, workers int) []string {
	t.Helper()
	var ids []string
	if err := src.Each(workers, func(r *model.Run) error {
		ids = append(ids, r.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestCachedSourceRoundTrip(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir}

	// Cold: parses everything and writes the cache file.
	cold := cachedIDs(t, src, 4)
	if len(cold) != len(runs) {
		t.Fatalf("cold stream yielded %d of %d", len(cold), len(runs))
	}
	if _, err := os.Stat(filepath.Join(dir, cacheFileName)); err != nil {
		t.Fatalf("cache file missing after cold stream: %v", err)
	}

	// Warm: identical IDs in identical (sorted-path) order, and the same
	// dataset as an uncached DirSource.
	warm := cachedIDs(t, src, 4)
	if len(warm) != len(cold) {
		t.Fatalf("warm stream yielded %d, cold %d", len(warm), len(cold))
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("order differs at %d: %s vs %s", i, warm[i], cold[i])
		}
	}
	cachedDS, err := New(WithSource(src)).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	plainDS, err := New(WithSource(DirSource{Dir: dir})).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := funnelKey(plainDS), funnelKey(cachedDS); a != b {
		t.Errorf("funnel differs: dir %v vs cached %v", a, b)
	}
}

// TestCachedSourceInvalidation: a modified file must be re-parsed, not
// served stale from the cache.
func TestCachedSourceInvalidation(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir}
	_ = cachedIDs(t, src, 0) // warm the cache

	// Corrupt one file. If the entry were served from the cache, the
	// stream would still succeed; invalidation forces a re-parse, which
	// fails and names the file.
	victim := filepath.Join(dir, runs[0].ID+".txt")
	if err := os.WriteFile(victim, []byte("no longer a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Ensure the mtime moves even on coarse-granularity filesystems.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(victim, past, past); err != nil {
		t.Fatal(err)
	}
	err = src.Each(0, func(*model.Run) error { return nil })
	if err == nil || !strings.Contains(err.Error(), runs[0].ID) {
		t.Fatalf("modified file served stale: err = %v", err)
	}
}

// TestCachedSourcePrunesDeleted: entries for deleted files disappear
// from both the stream and the rewritten cache.
func TestCachedSourcePrunesDeleted(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir}
	_ = cachedIDs(t, src, 0)
	if err := os.Remove(filepath.Join(dir, runs[0].ID+".txt")); err != nil {
		t.Fatal(err)
	}
	after := cachedIDs(t, src, 0)
	if len(after) != len(runs)-1 {
		t.Fatalf("stream yielded %d, want %d after deletion", len(after), len(runs)-1)
	}
	for _, id := range after {
		if id == runs[0].ID {
			t.Fatalf("deleted run %s still streamed", id)
		}
	}
	if m := loadParseCache(filepath.Join(dir, cacheFileName)); m[runs[0].ID+".txt"].Run != nil {
		t.Error("deleted file's entry survived the cache rewrite")
	}
}

// TestCachedSourceCorruptCache: a truncated or garbage cache file
// degrades to a full re-parse instead of failing.
func TestCachedSourceCorruptCache(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	cachePath := filepath.Join(dir, cacheFileName)
	if err := os.WriteFile(cachePath, []byte("gobbledygook"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir}
	if got := cachedIDs(t, src, 4); len(got) != len(runs) {
		t.Fatalf("corrupt cache: streamed %d of %d", len(got), len(runs))
	}
	// The corrupt file was replaced by a valid cache.
	if m := loadParseCache(cachePath); len(m) != len(runs) {
		t.Errorf("rewritten cache holds %d entries, want %d", len(m), len(runs))
	}
}

// TestCachedSourceCustomPath: CachePath relocates the cache outside the
// corpus directory.
func TestCachedSourceCustomPath(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	cachePath := filepath.Join(t.TempDir(), "elsewhere.gob")
	src := CachedSource{Dir: dir, CachePath: cachePath}
	_ = cachedIDs(t, src, 0)
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("custom cache path not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, cacheFileName)); !os.IsNotExist(err) {
		t.Errorf("default cache file should not exist, stat err = %v", err)
	}
}

// TestCachedSourceAppendOneColdParse pins the cache's
// append-friendliness: a new result file joining the corpus directory
// costs exactly one cold parse on the next stream — the cached parses
// of every untouched file survive, so live ingestion never churns the
// whole cache.
func TestCachedSourceAppendOneColdParse(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, extra := runs[:len(runs)-1], runs[len(runs)-1:]
	if err := WriteCorpus(dir, base, 0); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir}
	_ = cachedIDs(t, src, 0) // warm the cache over the base corpus

	if err := WriteCorpus(dir, extra, 0); err != nil {
		t.Fatal(err)
	}
	before := ParseCacheCounters()
	got := cachedIDs(t, src, 0)
	after := ParseCacheCounters()
	if len(got) != len(runs) {
		t.Fatalf("streamed %d of %d after append", len(got), len(runs))
	}
	if misses := after.Misses - before.Misses; misses != 1 {
		t.Errorf("appending one file cost %d cold parses, want 1", misses)
	}
	if hits := after.Hits - before.Hits; hits != int64(len(base)) {
		t.Errorf("append churned the cache: %d hits, want %d", hits, len(base))
	}
	if inv := after.Invalidations - before.Invalidations; inv != 0 {
		t.Errorf("append invalidated %d untouched entries", inv)
	}
}

// TestParseCacheCounters: the package-wide counters classify each load
// as hit, miss, invalidation, or prune. Counters are global, so the
// test asserts deltas across its own sequential streams.
func TestParseCacheCounters(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	src := CachedSource{Dir: dir}
	n := int64(len(runs))

	delta := func(f func()) ParseCacheStats {
		before := ParseCacheCounters()
		f()
		after := ParseCacheCounters()
		return ParseCacheStats{
			Hits:          after.Hits - before.Hits,
			Misses:        after.Misses - before.Misses,
			Invalidations: after.Invalidations - before.Invalidations,
			Prunes:        after.Prunes - before.Prunes,
		}
	}

	cold := delta(func() { _ = cachedIDs(t, src, 0) })
	if cold != (ParseCacheStats{Misses: n}) {
		t.Errorf("cold stream delta = %+v, want %d misses only", cold, n)
	}
	warm := delta(func() { _ = cachedIDs(t, src, 0) })
	if warm != (ParseCacheStats{Hits: n}) {
		t.Errorf("warm stream delta = %+v, want %d hits only", warm, n)
	}

	// Move one file's mtime: its entry is stale (invalidation) but the
	// unchanged content re-parses fine; the rest hit.
	victim := filepath.Join(dir, runs[0].ID+".txt")
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(victim, past, past); err != nil {
		t.Fatal(err)
	}
	inv := delta(func() { _ = cachedIDs(t, src, 0) })
	if inv != (ParseCacheStats{Hits: n - 1, Invalidations: 1}) {
		t.Errorf("stale-mtime delta = %+v, want %d hits + 1 invalidation", inv, n-1)
	}

	// Delete one file: its key is pruned at the rewrite; the rest hit.
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	pruned := delta(func() { _ = cachedIDs(t, src, 0) })
	if pruned != (ParseCacheStats{Hits: n - 1, Prunes: 1}) {
		t.Errorf("deletion delta = %+v, want %d hits + 1 prune", pruned, n-1)
	}
}
