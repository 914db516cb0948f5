package core

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Parse-cache counters are package-level because CachedSource is a
// value type constructed per ingestion — there is no long-lived
// receiver to hang them on. They count process-lifetime events across
// every CachedSource stream.
var (
	parseCacheHits          atomic.Int64 // size+mtime matched, parser skipped
	parseCacheMisses        atomic.Int64 // file absent from the cache
	parseCacheInvalidations atomic.Int64 // cached but stale (size or mtime changed)
	parseCachePrunes        atomic.Int64 // stale keys dropped at rewrite (deleted files)
)

// ParseCacheStats is a point-in-time snapshot of the process-wide gob
// parse-cache counters. Misses and invalidations both end in a
// re-parse; they are kept apart so a corpus that churns in place
// (invalidations) reads differently from one that grows (misses).
type ParseCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Prunes        int64
}

// ParseCacheCounters reports the process-wide parse-cache counters.
func ParseCacheCounters() ParseCacheStats {
	return ParseCacheStats{
		Hits:          parseCacheHits.Load(),
		Misses:        parseCacheMisses.Load(),
		Invalidations: parseCacheInvalidations.Load(),
		Prunes:        parseCachePrunes.Load(),
	}
}

// cacheFileName is the default gob parse-cache file inside a corpus
// directory. It carries no .txt extension, so the corpus lister never
// picks it up.
const cacheFileName = ".parse-cache.gob"

// cacheEntry is one cached parse: the file's identity (size + mtime)
// and the run it parsed to.
type cacheEntry struct {
	Size    int64
	ModTime int64 // UnixNano
	Run     *model.Run
}

// CachedSource streams a corpus directory like DirSource but keeps a
// gob parse cache next to the files (Dir/.parse-cache.gob by default),
// so repeat ingestion skips the text parser entirely. Entries are
// keyed by path relative to Dir and invalidated by file size + mtime:
// modified files are re-parsed, deleted files are pruned on the next
// successful stream, and cache trouble — missing, corrupt, or
// unwritable — silently degrades to plain parsing. Ordering,
// parallelism, and deterministic errors all match DirSource, but NOT
// its streaming memory bound: the cache holds every run in memory
// (both the loaded cache and the rewrite under construction), so for
// corpora larger than memory use DirSource instead.
type CachedSource struct {
	Dir string
	// CachePath overrides the cache file location (default
	// Dir/.parse-cache.gob).
	CachePath string
}

// Name implements Source.
func (s CachedSource) Name() string { return "cached(" + s.Dir + ")" }

func (s CachedSource) cachePath() string {
	if s.CachePath != "" {
		return s.CachePath
	}
	return filepath.Join(s.Dir, cacheFileName)
}

// Each implements Source.
func (s CachedSource) Each(workers int, yield func(*model.Run) error) error {
	paths, err := ListResultFiles(s.Dir)
	if err != nil {
		return err
	}
	old := loadParseCache(s.cachePath())
	if runs, ok := allCached(s.Dir, paths, old); ok {
		// Every file is a current hit: stream the cached runs in path
		// order on this goroutine, with no parse pool to feed.
		for _, r := range runs {
			parseCacheHits.Add(1)
			if err := yield(r); err != nil {
				return err
			}
		}
		if len(old) != len(paths) {
			// Stale keys of deleted files: prune them, as below.
			fresh := make(map[string]cacheEntry, len(paths))
			for _, p := range paths {
				rel := cacheKey(s.Dir, p)
				fresh[rel] = old[rel]
			}
			s.save(old, fresh)
		}
		return nil
	}
	var (
		mu    sync.Mutex
		fresh = make(map[string]cacheEntry, len(paths))
		dirty bool
	)
	load := func(path string) (*model.Run, error) {
		rel := cacheKey(s.Dir, path)
		info, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("core: stat %s: %w", path, err)
		}
		if ent, ok := old[rel]; ok {
			if ent.Size == info.Size() && ent.ModTime == info.ModTime().UnixNano() {
				parseCacheHits.Add(1)
				mu.Lock()
				fresh[rel] = ent
				mu.Unlock()
				return ent.Run, nil
			}
			parseCacheInvalidations.Add(1)
		} else {
			parseCacheMisses.Add(1)
		}
		r, err := parseResultFile(path)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		fresh[rel] = cacheEntry{Size: info.Size(), ModTime: info.ModTime().UnixNano(), Run: r}
		dirty = true
		mu.Unlock()
		return r, nil
	}
	if err := eachLoaded(paths, workers, load, nil, yield); err != nil {
		return err
	}
	// Rewrite only when something changed: a new or re-parsed file, or a
	// stale entry to prune. Best-effort, like the load side: a read-only
	// corpus mount must not fail an ingestion that already succeeded —
	// the next run just parses cold again.
	if dirty || len(fresh) != len(old) {
		s.save(old, fresh)
	}
	return nil
}

// save rewrites the cache file as fresh, counting each key of old it
// drops as a prune.
func (s CachedSource) save(old, fresh map[string]cacheEntry) {
	for rel := range old {
		if _, ok := fresh[rel]; !ok {
			parseCachePrunes.Add(1)
		}
	}
	_ = saveParseCache(s.cachePath(), fresh)
}

// cacheKey is a file's parse-cache key: its path relative to dir.
func cacheKey(dir, path string) string {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return path
	}
	return rel
}

// allCached returns the cached run of every path, in order, when the
// cache holds a size- and mtime-current entry for each; ok is false at
// the first file that is missing from it, stale, or fails to stat.
func allCached(dir string, paths []string, cache map[string]cacheEntry) (runs []*model.Run, ok bool) {
	if len(cache) < len(paths) {
		return nil, false
	}
	runs = make([]*model.Run, len(paths))
	for i, path := range paths {
		ent, hit := cache[cacheKey(dir, path)]
		if !hit {
			return nil, false
		}
		info, err := os.Stat(path)
		if err != nil || ent.Size != info.Size() || ent.ModTime != info.ModTime().UnixNano() {
			return nil, false
		}
		runs[i] = ent.Run
	}
	return runs, true
}

// loadParseCache reads a cache file; any failure (missing, corrupt,
// incompatible) yields an empty cache and a full re-parse.
func loadParseCache(path string) map[string]cacheEntry {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var m map[string]cacheEntry
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil
	}
	return m
}

// saveParseCache writes the cache atomically (temp file + rename), so a
// crash mid-write leaves the previous cache intact.
func saveParseCache(path string, m map[string]cacheEntry) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), cacheFileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: write parse cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := gob.NewEncoder(tmp).Encode(m); err != nil {
		tmp.Close()
		return fmt.Errorf("core: encode parse cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: write parse cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: write parse cache: %w", err)
	}
	return nil
}
