// Package par holds the bounded-worker parallel loop shared by the
// corpus pipeline (internal/core) and the clustering subsystem
// (internal/cluster). It lives below both so either side can fan work
// out without importing the other.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on a bounded worker pool (workers <= 0 =
// GOMAXPROCS). Workers claim indexes in ascending order from a shared
// atomic counter, so handing out an index costs one atomic add. On
// failure it returns the error of the lowest failing index — not
// whichever worker lost the race — so error reporting is
// deterministic. All workers drain before returning; once an error at
// index i is recorded, work at indexes above i may be skipped (indexes
// below i still run, in case one of them fails too).
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64 // the next index to hand out
		lowest   atomic.Int64 // the lowest failing index so far, n if none
		mu       sync.Mutex   // guards firstErr
		firstErr error
	)
	lowest.Store(int64(n))
	record := func(i int, err error) {
		mu.Lock()
		if int64(i) < lowest.Load() {
			lowest.Store(int64(i))
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow nodeterminism the pool reports the lowest failing index, not the race winner; callers slot results by index
		go func() {
			defer wg.Done()
			for {
				// Indexes are claimed in ascending order and lowest only
				// falls, so once a claim passes it every later one does.
				i := next.Add(1) - 1
				if i >= int64(n) || i > lowest.Load() {
					return
				}
				if err := fn(int(i)); err != nil {
					record(int(i), err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
