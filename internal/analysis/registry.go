package analysis

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Func is a named parameterized analysis: a derived computation over a
// classified Dataset, configured by a resolved Params bag (always fully
// populated against the registration's Schema — every declared key
// readable, defaults filled in). Results are plain structs
// (TrendFigure, Funnel, …) that the caller renders as text, SVG, or
// JSON.
type Func func(*Dataset, Params) (any, error)

// SimpleFunc is a zero-parameter analysis, the shape every registration
// had before the registry grew typed parameters. Register adapts it.
type SimpleFunc func(*Dataset) (any, error)

// Input classifies which pipeline stage of the corpus an analysis
// reads. It is the granularity of delta-aware memo invalidation: when
// runs are appended, an engine drops exactly the memos whose declared
// input stage gained rows and keeps the rest warm. The zero value
// (InputRaw) is the conservative default — affected by every append.
type Input int8

const (
	// InputRaw marks an analysis that reads every delivered run (the
	// funnel itself). Any append invalidates it.
	InputRaw Input = iota
	// InputParsed marks an analysis over the parse-consistent set;
	// appends rejected at the parse stage leave it untouched.
	InputParsed
	// InputComparable marks an analysis over the comparable set; only
	// appends that survive both filter stages invalidate it.
	InputComparable
	// InputNone marks an analysis that reads no corpus at all (static
	// tables). Appends never invalidate it.
	InputNone
)

// String names the stage for events and error messages.
func (in Input) String() string {
	switch in {
	case InputParsed:
		return "parsed"
	case InputComparable:
		return "comparable"
	case InputNone:
		return "none"
	default:
		return "raw"
	}
}

// RegOption customizes a registration at Register time.
type RegOption func(*Registration)

// Reads declares the pipeline stage the analysis consumes, so appends
// that never reach that stage keep its memos warm; see Input.
func Reads(in Input) RegOption {
	return func(r *Registration) { r.Input = in }
}

// Text sets the terminal rendering of the analysis's results: fn
// receives the value the registered func returned, asserted to its
// concrete type. An analysis without one renders as indented JSON.
func Text[T any](fn func(w io.Writer, v T)) RegOption {
	return func(r *Registration) {
		r.Text = func(w io.Writer, v any) { fn(w, v.(T)) }
	}
}

// Registration describes one entry of the analysis registry.
type Registration struct {
	Name        string
	Description string
	Func        Func

	// Params declares the analysis's typed parameters (nil = none).
	// Every serving surface resolves raw inputs against it, so the
	// declaration is the only place a knob exists.
	Params Schema

	// Static marks an analysis that does not read the corpus; engines
	// skip ingestion entirely when computing it and pass Func a nil
	// Dataset.
	Static bool

	// Input is the pipeline stage the analysis reads, declared with
	// Reads and consumed by the engine's delta-aware memo invalidation.
	// Static registrations are always InputNone.
	Input Input

	// Text renders one result as terminal text, set with the Text
	// option (nil = indented JSON). The full report and single-analysis
	// text output both print through it.
	Text func(w io.Writer, v any)

	// defaults is the schema's all-default bag, resolved once at
	// registration so by-name requests on hot serving paths don't
	// re-resolve (and re-validate) the schema per call.
	defaults Params
}

// DefaultParams returns the registration's resolved all-default
// parameter bag. Params is read-only, so sharing one bag across every
// caller is safe.
func (r Registration) DefaultParams() Params { return r.defaults }

var registry = struct {
	sync.RWMutex
	byName map[string]Registration
	order  []string
}{byName: map[string]Registration{}}

// Register adds a parameterless analysis to the global registry.
// Engines look analyses up by name (core.Engine.Run("fig3", …)) and
// memoize their results per engine. Register panics on a duplicate
// name: names are package-level API and collisions are programming
// errors, caught at init time.
func Register(name, description string, fn SimpleFunc, opts ...RegOption) {
	if fn == nil {
		panic("analysis: Register requires a func")
	}
	register(Registration{
		Name:        name,
		Description: description,
		Func:        func(ds *Dataset, _ Params) (any, error) { return fn(ds) },
	}, opts...)
}

// RegisterParams adds an analysis with declared typed parameters. The
// schema's defaults must be self-consistent: register resolves them,
// so a registration whose defaults fail their own validation panics at
// init time instead of erroring on the first request.
func RegisterParams(name, description string, schema Schema, fn Func, opts ...RegOption) {
	register(Registration{
		Name:        name,
		Description: description,
		Func:        fn,
		Params:      schema,
	}, opts...)
}

// RegisterStatic adds a named analysis that does not depend on the
// corpus (like the catalog-driven table1): engines compute it without
// ingesting their source at all.
func RegisterStatic(name, description string, fn func() (any, error), opts ...RegOption) {
	register(Registration{
		Name:        name,
		Description: description,
		Func:        func(*Dataset, Params) (any, error) { return fn() },
		Static:      true,
	}, opts...)
}

func register(reg Registration, opts ...RegOption) {
	if reg.Name == "" || reg.Func == nil {
		panic("analysis: Register requires a name and a func")
	}
	for _, opt := range opts {
		opt(&reg)
	}
	if reg.Static {
		// A static analysis reads no corpus by definition; a conflicting
		// Reads declaration would silently disable memo retention.
		reg.Input = InputNone
	}
	reg.defaults = reg.Params.Defaults() // panics on self-invalid defaults

	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[reg.Name]; dup {
		panic(fmt.Sprintf("analysis: duplicate registration of %q", reg.Name))
	}
	registry.byName[reg.Name] = reg
	registry.order = append(registry.order, reg.Name)
}

// Lookup finds a registered analysis by name.
func Lookup(name string) (Registration, bool) {
	registry.RLock()
	defer registry.RUnlock()
	reg, ok := registry.byName[name]
	return reg, ok
}

// Names lists every registered analysis in registration order, which
// follows the paper's presentation (funnel, figures, in-text
// statistics, extended analyses).
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// SortedNames lists every registered analysis alphabetically, for error
// messages and documentation.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

// The paper's analyses, by name. Parameters (top-100, since-2021,
// minimum bin sizes, α levels) are pinned to the paper's choices so a
// name always means the same computation.
func init() {
	Register("funnel", "Section II filter funnel (1017 → 960 → 676)",
		func(ds *Dataset) (any, error) { return ds.Funnel, nil },
		Reads(InputRaw), Text(funnelText))
	Register("fig1", "Figure 1: corpus composition by year (OS, vendor, sockets, nodes)",
		func(ds *Dataset) (any, error) { return Fig1Shares(ds.Parsed), nil },
		Reads(InputParsed), Text(fig1Text))
	Register("fig2", "Figure 2: power per socket at full load (W)",
		func(ds *Dataset) (any, error) { return Fig2PowerPerSocket(ds.Comparable), nil },
		Reads(InputComparable), Text(trendText("W/socket")))
	Register("fig3", "Figure 3: overall efficiency (ssj_ops/W)",
		func(ds *Dataset) (any, error) { return Fig3OverallEfficiency(ds.Comparable), nil },
		Reads(InputComparable), Text(trendText("ssj_ops/W")))
	Register("fig4", "Figure 4: relative efficiency at 60-90% load by vendor and year",
		func(ds *Dataset) (any, error) { return Fig4RelativeEfficiency(ds.Comparable), nil },
		Reads(InputComparable), Text(fig4Text))
	Register("fig5", "Figure 5: idle power / full load power",
		func(ds *Dataset) (any, error) { return Fig5IdleFraction(ds.Comparable), nil },
		Reads(InputComparable), Text(trendText("idle/full")))
	Register("fig6", "Figure 6: extrapolated idle quotient",
		func(ds *Dataset) (any, error) { return Fig6IdleQuotient(ds.Comparable), nil },
		Reads(InputComparable), Text(trendText("extrapolated/measured")))
	Register("submissions", "S2: submission rates and OS/vendor share shifts",
		func(ds *Dataset) (any, error) { return SubmissionTrends(ds.Parsed), nil },
		Reads(InputParsed), Text(submissionsText))
	Register("growth", "S3: full-load power growth, early vs late era",
		func(ds *Dataset) (any, error) { return PowerGrowth(ds.Comparable) },
		Reads(InputComparable), Text(growthText))
	Register("top100", "S4: vendor composition of the 100 most efficient runs",
		func(ds *Dataset) (any, error) { return TopEfficient(ds.Comparable, 100), nil },
		Reads(InputComparable), Text(top100Text))
	Register("idlehistory", "S5: idle-fraction history (first / minimum / last year)",
		func(ds *Dataset) (any, error) { return IdleFractionHistory(ds.Comparable, 5) },
		Reads(InputComparable), Text(idleHistoryText))
	Register("features", "S6: per-vendor feature comparison since 2021",
		func(ds *Dataset) (any, error) { return RecentFeatures(ds.Comparable, 2021) },
		Reads(InputComparable), Text(featuresText))
	Register("trends", "Mann-Kendall + Theil-Sen trend tests behind the conclusions",
		func(ds *Dataset) (any, error) { return PaperTrends(ds.Comparable, 0.10, ds.Workers) },
		Reads(InputComparable), Text(trendsText))
	Register("ep", "energy proportionality score by year",
		func(ds *Dataset) (any, error) { return EPByYear(ds.Comparable), nil },
		Reads(InputComparable), Text(epText))
	Register("confound", "pooled vs within-vendor correlations since 2021",
		func(ds *Dataset) (any, error) { return ConfoundingScan(ds.Comparable, 2021) },
		Reads(InputComparable), Text(confoundText))
	Register("changepoint", "Pettitt changepoint of the idle-fraction history",
		func(ds *Dataset) (any, error) { return IdleFractionChangepoint(ds.Comparable, 5, 0.05) },
		Reads(InputComparable), Text(changepointText))
}
