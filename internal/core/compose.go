package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// FilterSource streams only the runs of Inner that satisfy Keep — a
// corpus slice (per-vendor, per-year, since-N, …) expressed as a source,
// so every engine feature works on the slice unchanged. A nil Keep
// passes everything through.
type FilterSource struct {
	Inner Source
	Keep  func(*model.Run) bool
	// Desc names the predicate in Name() and error messages, e.g.
	// "vendor=AMD,since=2021".
	Desc string
}

// Name implements Source.
func (s FilterSource) Name() string {
	d := s.Desc
	if d == "" {
		d = "func"
	}
	return fmt.Sprintf("filter(%s, %s)", d, s.Inner.Name())
}

// Each implements Source. Filtering happens on the consumer side of the
// inner stream, so the inner source's ordering, parallelism, and
// streaming bound are preserved.
func (s FilterSource) Each(workers int, yield func(*model.Run) error) error {
	if s.Keep == nil {
		return s.Inner.Each(workers, yield)
	}
	return s.Inner.Each(workers, func(r *model.Run) error {
		if !s.Keep(r) {
			return nil
		}
		return yield(r)
	})
}

// MergeSource concatenates several sources — corpus directories,
// synthetic corpora, slices, other combinators — into one stream.
// Sources are drained in slice order, each in its own deterministic
// order, so the merged stream is deterministic too.
type MergeSource []Source

// Name implements Source.
func (s MergeSource) Name() string {
	names := make([]string, len(s))
	for i, src := range s {
		names[i] = src.Name()
	}
	return "merge(" + strings.Join(names, " + ") + ")"
}

// Each implements Source. The first source error or yield error stops
// the whole stream.
func (s MergeSource) Each(workers int, yield func(*model.Run) error) error {
	for _, src := range s {
		if err := src.Each(workers, yield); err != nil {
			return err
		}
	}
	return nil
}

// Parted is implemented by composite sources that decompose into
// sequential parts whose concatenated streams equal their own. The
// engine streams such a source part by part, so its ingest event
// carries per-source boundaries without changing what is streamed.
type Parted interface {
	// SourceParts returns the parts in drain order, or nil when the
	// source does not decompose.
	SourceParts() []Source
}

// SourceParts implements Parted: the merge's elements, in drain order.
func (s MergeSource) SourceParts() []Source { return []Source(s) }

// SourceParts implements Parted: the inner source's parts, each wrapped
// in the same filter, so filter(merge(a, b)) decomposes into
// filter(a), filter(b).
func (s FilterSource) SourceParts() []Source {
	inner, ok := s.Inner.(Parted)
	if !ok {
		return nil
	}
	ps := inner.SourceParts()
	out := make([]Source, len(ps))
	for i, p := range ps {
		out[i] = FilterSource{Inner: p, Keep: s.Keep, Desc: s.Desc}
	}
	return out
}

// sourceParts returns src's sequential decomposition, or nil.
func sourceParts(src Source) []Source {
	if p, ok := src.(Parted); ok {
		return p.SourceParts()
	}
	return nil
}

// ParseFilter compiles a corpus-slice expression into a run predicate
// for FilterSource. An expression is a comma-separated list of clauses,
// all of which must hold (AND); within a clause, "|" separates
// alternatives (OR). Supported clauses:
//
//	vendor=AMD|Intel|Other   CPU vendor (case-insensitive)
//	os=Linux|Windows|...     OS family (case-insensitive)
//	year=2020                hardware-availability year
//	year=2018-2022           inclusive year range
//	since=2021               hardware available in or after the year
//
// Years use the hardware-availability date, the axis the paper bins
// every trend by.
func ParseFilter(expr string) (func(*model.Run) bool, error) {
	var preds []func(*model.Run) bool
	for _, clause := range strings.Split(expr, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("core: filter clause %q: want key=value", clause)
		}
		key = strings.TrimSpace(strings.ToLower(key))
		val = strings.TrimSpace(val)
		p, err := filterClause(key, val)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("core: empty filter expression")
	}
	return func(r *model.Run) bool {
		for _, p := range preds {
			if !p(r) {
				return false
			}
		}
		return true
	}, nil
}

// filterClause compiles one key=value clause.
func filterClause(key, val string) (func(*model.Run) bool, error) {
	switch key {
	case "vendor":
		want, err := filterAlternatives(key, val)
		if err != nil {
			return nil, err
		}
		hit := namesIn(want, model.VendorUnknown, model.VendorOther)
		return func(r *model.Run) bool { return hit[r.CPUVendor.String()] }, nil
	case "os":
		want, err := filterAlternatives(key, val)
		if err != nil {
			return nil, err
		}
		hit := namesIn(want, model.OSUnknown, model.OSOther)
		return func(r *model.Run) bool { return hit[r.OSFamily.String()] }, nil
	case "year":
		lo, hi, err := parseYearRange(val)
		if err != nil {
			return nil, err
		}
		return func(r *model.Run) bool {
			y := r.HWAvail.Year
			return y >= lo && y <= hi
		}, nil
	case "since":
		y, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("core: filter since=%q: not a year", val)
		}
		return func(r *model.Run) bool { return r.HWAvail.Year >= y }, nil
	default:
		return nil, fmt.Errorf("core: unknown filter key %q (want vendor, os, year, or since)", key)
	}
}

// filterAlternatives splits "AMD|Intel" into a lower-cased membership
// set.
func filterAlternatives(key, val string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, alt := range strings.Split(val, "|") {
		if alt = strings.TrimSpace(alt); alt != "" {
			want[strings.ToLower(alt)] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("core: filter %s=: empty value", key)
	}
	return want, nil
}

// namesIn maps the String() of each value lo..hi to whether its
// lower-cased form is in want, deciding membership once per filter.
// String() has a closed set of outputs — a value outside lo..hi prints
// as lo's "Unknown" — so looking it up verbatim gives the lower-cased
// answer for every value and allocates nothing per run.
func namesIn[E interface {
	~int
	String() string
}](want map[string]bool, lo, hi E) map[string]bool {
	hit := map[string]bool{}
	for v := lo; v <= hi; v++ {
		hit[v.String()] = want[strings.ToLower(v.String())]
	}
	return hit
}

// parseYearRange parses "2020" or "2018-2022" (inclusive).
func parseYearRange(val string) (lo, hi int, err error) {
	from, to, ranged := strings.Cut(val, "-")
	if lo, err = strconv.Atoi(strings.TrimSpace(from)); err != nil {
		return 0, 0, fmt.Errorf("core: filter year=%q: not a year", val)
	}
	if !ranged {
		return lo, lo, nil
	}
	if hi, err = strconv.Atoi(strings.TrimSpace(to)); err != nil || hi < lo {
		return 0, 0, fmt.Errorf("core: filter year=%q: want YEAR or FROM-TO", val)
	}
	return lo, hi, nil
}
