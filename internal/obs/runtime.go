package obs

import (
	"runtime"
	"sync"
	"time"
)

// RuntimeStats is one point-in-time reading of the Go runtime, the
// source of the specserve_runtime_* exposition section.
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int
	// HeapInuseBytes is the heap memory in active spans.
	HeapInuseBytes uint64
	// HeapAllocBytes is the live heap allocation.
	HeapAllocBytes uint64
	// GCCycles is the completed GC cycle count.
	GCCycles uint32
	// GCPauses aggregates stop-the-world pause durations over the
	// sampler's lifetime.
	GCPauses HistogramSnapshot
}

// RuntimeSampler reads runtime memory statistics and accumulates the
// GC pause history into a histogram. runtime.MemStats only retains the
// last 256 pauses in a circular buffer, so the sampler folds in the
// pauses that are new since its previous read — sampled at least once
// per 256 GC cycles (every /metrics scrape easily clears that), the
// histogram covers every pause of the process lifetime.
// Safe for concurrent use.
type RuntimeSampler struct {
	mu      sync.Mutex
	pauses  Histogram
	lastNum uint32
}

// Sample reads the runtime and returns the current stats, folding any
// GC pauses completed since the previous Sample into the histogram.
func (s *RuntimeSampler) Sample() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	fresh := ms.NumGC - s.lastNum
	if n := uint32(len(ms.PauseNs)); fresh > n {
		// The circular buffer wrapped between samples: the overwritten
		// pauses are gone, count what survives.
		fresh = n
	}
	// Cycle g's pause lives at PauseNs[(g+255)%256] (see runtime.MemStats);
	// fold in cycles (lastNum, NumGC], newest-fresh of them.
	for g := ms.NumGC - fresh + 1; g <= ms.NumGC && g > 0; g++ {
		s.pauses.Observe(time.Duration(ms.PauseNs[(g-1)%uint32(len(ms.PauseNs))]))
	}
	s.lastNum = ms.NumGC
	s.mu.Unlock()
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		HeapAllocBytes: ms.HeapAlloc,
		GCCycles:       ms.NumGC,
		GCPauses:       s.pauses.Snapshot(),
	}
}
