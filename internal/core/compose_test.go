package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/synth"
)

func TestFilterSource(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantAMD := 0
	for _, r := range runs {
		if r.CPUVendor == model.VendorAMD {
			wantAMD++
		}
	}
	if wantAMD == 0 || wantAMD == len(runs) {
		t.Fatalf("test corpus needs a vendor mix, got %d/%d AMD", wantAMD, len(runs))
	}
	src := FilterSource{
		Inner: SliceSource(runs),
		Keep:  func(r *model.Run) bool { return r.CPUVendor == model.VendorAMD },
		Desc:  "vendor=AMD",
	}
	var got int
	err = src.Each(0, func(r *model.Run) error {
		if r.CPUVendor != model.VendorAMD {
			t.Fatalf("non-AMD run %s leaked through the filter", r.ID)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantAMD {
		t.Errorf("filter yielded %d runs, want %d", got, wantAMD)
	}
	if name := src.Name(); !strings.Contains(name, "vendor=AMD") ||
		!strings.Contains(name, "slice") {
		t.Errorf("Name() = %q should describe predicate and inner source", name)
	}
	// nil Keep passes everything.
	all := 0
	if err := (FilterSource{Inner: SliceSource(runs)}).Each(0,
		func(*model.Run) error { all++; return nil }); err != nil {
		t.Fatal(err)
	}
	if all != len(runs) {
		t.Errorf("nil Keep yielded %d of %d", all, len(runs))
	}
}

func TestMergeSource(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	half := len(runs) / 2
	src := MergeSource{SliceSource(runs[:half]), SliceSource(runs[half:])}
	var ids []string
	if err := src.Each(0, func(r *model.Run) error {
		ids = append(ids, r.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(runs) {
		t.Fatalf("merged %d of %d runs", len(ids), len(runs))
	}
	// Concatenation order is deterministic: first source fully drained,
	// then the second.
	for i, r := range runs {
		if ids[i] != r.ID {
			t.Fatalf("order differs at %d: %s vs %s", i, ids[i], r.ID)
		}
	}
	if name := src.Name(); !strings.HasPrefix(name, "merge(") ||
		!strings.Contains(name, " + ") {
		t.Errorf("Name() = %q", name)
	}
	// A yield error stops the whole merged stream.
	stop := errors.New("stop")
	n := 0
	err = src.Each(0, func(*model.Run) error {
		n++
		if n == half+2 { // inside the second source
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != half+2 {
		t.Fatalf("err=%v after %d yields, want stop after %d", err, n, half+2)
	}
	// The merged engine classifies the same dataset as one big slice.
	merged, err := New(WithSource(src)).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := New(WithSource(SliceSource(runs))).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := funnelKey(direct), funnelKey(merged); a != b {
		t.Errorf("funnel differs: direct %v vs merged %v", a, b)
	}
}

func TestParseFilter(t *testing.T) {
	run := func(vendor model.CPUVendor, osf model.OSFamily, year int) *model.Run {
		return &model.Run{CPUVendor: vendor, OSFamily: osf,
			HWAvail: model.YM(year, time.June)}
	}
	amd2022 := run(model.VendorAMD, model.OSLinux, 2022)
	intel2010 := run(model.VendorIntel, model.OSWindows, 2010)
	intel2020 := run(model.VendorIntel, model.OSLinux, 2020)

	cases := []struct {
		expr string
		want map[*model.Run]bool
	}{
		{"vendor=AMD", map[*model.Run]bool{amd2022: true, intel2010: false}},
		{"vendor=amd|INTEL", map[*model.Run]bool{amd2022: true, intel2010: true}},
		{"os=Linux", map[*model.Run]bool{amd2022: true, intel2010: false}},
		{"year=2010", map[*model.Run]bool{intel2010: true, intel2020: false}},
		{"year=2018-2022", map[*model.Run]bool{amd2022: true, intel2020: true, intel2010: false}},
		{"since=2020", map[*model.Run]bool{amd2022: true, intel2020: true, intel2010: false}},
		{"vendor=Intel, since=2015", map[*model.Run]bool{intel2020: true, intel2010: false, amd2022: false}},
	}
	for _, c := range cases {
		keep, err := ParseFilter(c.expr)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", c.expr, err)
		}
		for r, want := range c.want {
			if got := keep(r); got != want {
				t.Errorf("filter %q on %s/%s/%d = %v, want %v",
					c.expr, r.CPUVendor, r.OSFamily, r.HWAvail.Year, got, want)
			}
		}
	}

	for _, bad := range []string{
		"", "   ", "vendor", "color=red", "year=abc", "year=2022-2018",
		"since=soon", "vendor=", "os=",
	} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) should fail", bad)
		}
	}
}

// TestFilterMembershipClosedSet: a vendor= or os= predicate decides
// membership once per name at compile time, so for every value — out
// of range ones included, which print as "Unknown" — it must agree with
// a lower-cased lookup of the value's name, and allocate nothing.
func TestFilterMembershipClosedSet(t *testing.T) {
	for _, val := range []string{"AMD|intel", "Other", "unknown", "macos", "Intel|Linux|OTHER"} {
		want, err := filterAlternatives("test", val)
		if err != nil {
			t.Fatal(err)
		}
		vendorKeep, err := ParseFilter("vendor=" + val)
		if err != nil {
			t.Fatal(err)
		}
		osKeep, err := ParseFilter("os=" + val)
		if err != nil {
			t.Fatal(err)
		}
		for v := -1; v <= 8; v++ {
			r := &model.Run{CPUVendor: model.CPUVendor(v), OSFamily: model.OSFamily(v)}
			if got, w := vendorKeep(r), want[strings.ToLower(r.CPUVendor.String())]; got != w {
				t.Errorf("vendor=%s on CPUVendor(%d) %q = %v, want %v", val, v, r.CPUVendor, got, w)
			}
			if got, w := osKeep(r), want[strings.ToLower(r.OSFamily.String())]; got != w {
				t.Errorf("os=%s on OSFamily(%d) %q = %v, want %v", val, v, r.OSFamily, got, w)
			}
			if allocs := testing.AllocsPerRun(20, func() { vendorKeep(r); osKeep(r) }); allocs != 0 {
				t.Errorf("vendor=/os=%s on value %d: %v allocs per call, want 0", val, v, allocs)
			}
		}
	}
}

// TestParseFilterErrorMessages: each error path names what went wrong
// precisely enough to fix the expression — these strings surface
// verbatim in CLI fatal messages and HTTP 400 bodies.
func TestParseFilterErrorMessages(t *testing.T) {
	cases := []struct {
		expr string
		want []string
	}{
		{"color=red", []string{"unknown filter key", `"color"`, "vendor"}},
		{"vendor", []string{`"vendor"`, "key=value"}},
		{"year=abc", []string{"year", `"abc"`}},
		{"year=2022-20xx", []string{"year", "FROM-TO"}},
		{"year=2022-2018", []string{"year", "FROM-TO"}},
		{"since=soon", []string{"since", `"soon"`, "year"}},
		{"", []string{"empty filter"}},
		{" , , ", []string{"empty filter"}},
		{"vendor=", []string{"vendor", "empty value"}},
		{"os=|", []string{"os", "empty value"}},
		{"vendor=AMD,color=red", []string{"unknown filter key", `"color"`}},
	}
	for _, c := range cases {
		_, err := ParseFilter(c.expr)
		if err == nil {
			t.Errorf("ParseFilter(%q) should fail", c.expr)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseFilter(%q) error %q missing %q", c.expr, err, want)
			}
		}
	}
}

// TestFilterOverCachedSource: FilterSource composed over CachedSource —
// the exact stack the HTTP server pool builds per scope. The filter
// must see the same runs cold (parsing) and warm (gob cache), and the
// filtered stream must not disturb what gets cached: the cache holds
// the whole directory, so differently-filtered scopes share it.
func TestFilterOverCachedSource(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, runs, 0); err != nil {
		t.Fatal(err)
	}
	keep, err := ParseFilter("vendor=AMD")
	if err != nil {
		t.Fatal(err)
	}
	stack := func() Source {
		return FilterSource{Inner: CachedSource{Dir: dir}, Keep: keep, Desc: "vendor=AMD"}
	}
	count := func(src Source) int {
		t.Helper()
		n := 0
		if err := src.Each(0, func(r *model.Run) error {
			if r.CPUVendor != model.VendorAMD {
				t.Fatalf("non-AMD run %s leaked through the cached filter", r.ID)
			}
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}

	cold := count(stack())
	if cold == 0 || cold == len(runs) {
		t.Fatalf("filtered corpus needs a vendor mix, got %d of %d", cold, len(runs))
	}
	if _, err := os.Stat(filepath.Join(dir, cacheFileName)); err != nil {
		t.Fatalf("cold filtered pass did not write the parse cache: %v", err)
	}
	if warm := count(stack()); warm != cold {
		t.Errorf("warm pass yielded %d runs, cold %d", warm, cold)
	}
	// A different scope over the same cached directory still sees the
	// full complement of its runs (the cache was not filtered down).
	keepIntel, err := ParseFilter("vendor=Intel")
	if err != nil {
		t.Fatal(err)
	}
	intel := 0
	if err := (FilterSource{Inner: CachedSource{Dir: dir}, Keep: keepIntel,
		Desc: "vendor=Intel"}).Each(0, func(*model.Run) error {
		intel++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if wantIntel := len(runs) - cold; intel == 0 || intel > wantIntel {
		t.Errorf("intel scope over the shared cache saw %d runs (corpus has ≤ %d)", intel, wantIntel)
	}
	// The engine-level view agrees with an unfiltered in-memory slice
	// of the same predicate.
	ds, err := New(WithSource(stack())).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Raw) != cold {
		t.Errorf("engine over the stack ingested %d runs, want %d", len(ds.Raw), cold)
	}
}

// TestFilterSourceEngineSlice: the canonical use — an engine over a
// per-vendor slice of a directory corpus.
func TestFilterSourceEngineSlice(t *testing.T) {
	runs, err := synth.Generate(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	keep, err := ParseFilter("vendor=AMD")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := New(WithSource(FilterSource{
		Inner: SliceSource(runs), Keep: keep, Desc: "vendor=AMD",
	})).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Raw) == 0 {
		t.Fatal("AMD slice is empty")
	}
	for _, r := range ds.Raw {
		if r.CPUVendor != model.VendorAMD {
			t.Fatalf("run %s is %s, want AMD", r.ID, r.CPUVendor)
		}
	}
}
