// Package fixture exercises the nodeterminism analyzer: every
// violation the determinism contract bans, next to its nearest
// legitimate pattern. Lives under testdata, so the go tool never
// builds it and these registrations never execute.
package fixture

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/analysis"
)

func init() {
	// Entry points via named funcs and via a literal, so both discovery
	// paths are covered.
	analysis.Register("ndet-clock", "reads the wall clock", wallClock)
	analysis.Register("ndet-rand", "draws from the global source", globalRand)
	analysis.Register("ndet-env", "reads the environment", readsEnv)
	analysis.Register("ndet-helper", "sins through a helper", viaHelper)
	analysis.Register("ndet-pool", "unslotted goroutines", unslottedPool)
	analysis.Register("ndet-allowed", "annotated pool", allowedPool)
	analysis.Register("ndet-literal", "literal entry", func(ds *analysis.Dataset) (any, error) {
		return time.Now().Unix(), nil // want "reads the wall clock"
	})
	analysis.Register("ndet-seeded", "seeded private generator", seededRand)
	// The func arg is trailed by a RegOption (itself func-typed); the
	// walk must still find the entry by type rather than position.
	analysis.Register("ndet-optioned", "entry with trailing option", optionedClock,
		analysis.Reads(analysis.InputComparable))
	analysis.Register("ndet-observer", "kernel progress observer", observerEmitter)
	analysis.Register("ndet-stored", "metric stored in a table", storedMetric)
	analysis.Register("ndet-select", "racing select", selectRace)
	// Text renderers print served bytes, so they are entry points too:
	// named, built by a constructor, and literal.
	analysis.Register("ndet-text", "renderer reads the clock", seededRand,
		analysis.Text(clockText))
	analysis.Register("ndet-text-ctor", "constructed renderer", seededRand,
		analysis.Text(labelledText("x")))
	analysis.Register("ndet-text-literal", "literal renderer", seededRand,
		analysis.Text(func(w io.Writer, v float64) {
			fmt.Fprint(w, v, os.Getenv("SPEC_MODE")) // want "reads the process environment"
		}))
}

func clockText(w io.Writer, v float64) {
	fmt.Fprint(w, v, time.Now()) // want "reads the wall clock"
}

func labelledText(label string) func(io.Writer, float64) {
	return func(w io.Writer, v float64) {
		fmt.Fprint(w, label, v, rand.Int()) // want "draws from the global math/rand source"
	}
}

func selectRace(ds *analysis.Dataset) (any, error) {
	a, b := make(chan int, 1), make(chan int, 1)
	a <- 1
	b <- 2
	select { // want "selects over multiple cases"
	case v := <-a:
		return v, nil
	case v := <-b:
		return v, nil
	}
}

func wallClock(ds *analysis.Dataset) (any, error) {
	return time.Since(time.Unix(0, 0)), nil // want "reads the wall clock"
}

func globalRand(ds *analysis.Dataset) (any, error) {
	return rand.Float64(), nil // want "draws from the global math/rand source"
}

func readsEnv(ds *analysis.Dataset) (any, error) {
	return os.Getenv("SPEC_MODE"), nil // want "reads the process environment"
}

// viaHelper is clean itself; the violation sits one call away, which
// is exactly what the call-graph walk exists to catch.
func viaHelper(ds *analysis.Dataset) (any, error) {
	return helper(), nil
}

func helper() int64 {
	return time.Now().UnixNano() // want "reads the wall clock"
}

func unslottedPool(ds *analysis.Dataset) (any, error) {
	out := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() { out <- i }() // want "starts a goroutine"
	}
	a, b := <-out, <-out
	return a + b, nil
}

// allowedPool carries the escape hatch with a reason: the finding is
// suppressed, so no want comment here.
func allowedPool(ds *analysis.Dataset) (any, error) {
	done := make(chan struct{})
	//lint:allow nodeterminism result is a constant; the goroutine only paces completion
	go func() { close(done) }()
	<-done
	return 1, nil
}

// observerEmitter is the sanctioned tracing pattern: kernels report
// progress as count-only events through the dataset's func-typed
// observer. The call is dynamic — the walk cannot see through
// ds.Kernel's value, and by contract the serving layer injects the
// timestamping there, outside the registered set — so no diagnostics.
// The determinism this rests on is behavioral: events carry counts the
// analysis computed anyway, never clock or rand reads (those would be
// flagged at the emit site, as wallClock above shows).
func observerEmitter(ds *analysis.Dataset) (any, error) {
	for i := 0; i < 3; i++ {
		if ds.Kernel != nil {
			ds.Kernel(analysis.KernelEvent{Kernel: "kmeans", Event: "iteration", Index: i, Moved: 3 - i})
		}
	}
	return 3, nil
}

// seededRand is the sanctioned pattern: a private generator with a
// caller-supplied seed. No diagnostics.
func seededRand(ds *analysis.Dataset) (any, error) {
	rng := rand.New(rand.NewSource(14))
	return rng.Float64(), nil
}

// storedMetric references sinner without calling it; the reference
// rule still marks it reachable (metric tables store funcs and call
// them through variables).
func storedMetric(ds *analysis.Dataset) (any, error) {
	metrics := []func() int64{sinner}
	return metrics[0](), nil
}

func sinner() int64 {
	return time.Now().Unix() // want "reads the wall clock"
}

// optionedClock is registered with a trailing RegOption; its violation
// must still be reported.
func optionedClock(ds *analysis.Dataset) (any, error) {
	return time.Now().UnixMilli(), nil // want "reads the wall clock"
}

// unreachable is never registered and never referenced from a
// registered func: its wall-clock read is fine, because only the
// serving contract's reachable set is constrained.
func unreachable() int64 {
	return time.Now().Unix()
}
