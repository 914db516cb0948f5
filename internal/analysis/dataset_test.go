package analysis

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDeriveOnceUnderContention: concurrent callers of one key share a
// single computation and all see its value.
func TestDeriveOnceUnderContention(t *testing.T) {
	ds := NewDatasetBuilder().Snapshot()
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Derive(ds, "k", func() (int, error) {
				calls.Add(1)
				<-release // hold the computation open while the others arrive
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("f ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
}

// derivedCounter wraps Derive so a test can count how often each key
// really computes.
func derivedCounter(ds *Dataset, calls map[string]int) func(key string) {
	return func(key string) {
		_, _ = Derive(ds, key, func() (string, error) {
			calls[key]++
			return key, nil
		})
	}
}

// TestDeriveEvictsOldest: the memo holds derivedCap keys; one more
// evicts the first inserted, which then recomputes, while the rest
// stay resident.
func TestDeriveEvictsOldest(t *testing.T) {
	ds := NewDatasetBuilder().Snapshot()
	calls := map[string]int{}
	derive := derivedCounter(ds, calls)
	for i := 0; i <= derivedCap; i++ {
		derive("key" + strconv.Itoa(i))
	}
	derive("key" + strconv.Itoa(derivedCap)) // newest: resident
	derive("key1")                           // second oldest: resident
	derive("key0")                           // oldest: evicted by the ninth key
	want := map[string]int{"key0": 2, "key1": 1, "key" + strconv.Itoa(derivedCap): 1}
	for key, n := range want {
		if calls[key] != n {
			t.Errorf("%s computed %d times, want %d", key, calls[key], n)
		}
	}
}

// TestDeriveLifetime: a WithKernel copy shares its original's memo, a
// later Snapshot of the same builder starts empty, and a literally
// constructed dataset has no memo at all.
func TestDeriveLifetime(t *testing.T) {
	b := NewDatasetBuilder()
	first := b.Snapshot()
	calls := map[string]int{}
	derivedCounter(first, calls)("k")
	derivedCounter(first.WithKernel(func(KernelEvent) {}), calls)("k")
	if calls["k"] != 1 {
		t.Errorf("WithKernel copy recomputed: %d calls, want 1", calls["k"])
	}
	derivedCounter(b.Snapshot(), calls)("k")
	if calls["k"] != 2 {
		t.Errorf("second snapshot reused the first's entry: %d calls, want 2", calls["k"])
	}
	lit := &Dataset{}
	derivedCounter(lit, calls)("k")
	derivedCounter(lit, calls)("k")
	if calls["k"] != 4 {
		t.Errorf("literal dataset memoized: %d calls, want 4", calls["k"])
	}
}
