package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/synth"
)

// FuzzIndentJSON: for any valid JSON document, compacted and ended
// with a newline as json.Encoder writes it, indentJSON's output equals
// json.Indent's with the indent EncodeJSON writes.
func FuzzIndentJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		compact.WriteByte('\n')
		var want bytes.Buffer
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := indentJSON(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indentJSON(%q)\ngot:  %q\nwant: %q", compact.Bytes(), got, want.Bytes())
		}
	})
}

// TestSmallSlicesEncode: on corpus slices too small for some analyses
// (an empty era, a missing vendor, an empty year window), every
// registered analysis either returns an error or a value EncodeJSON
// encodes. A NaN in a result would fail the encode instead, turning
// -json and a served request into an encoder error.
func TestSmallSlicesEncode(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{
		"year=2007", "vendor=other", "os=other", "vendor=amd,year=2013-2016",
		"since=2024", "vendor=amd", "vendor=intel",
	} {
		keep, err := ParseFilter(expr)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(WithSource(FilterSource{Inner: SliceSource(runs), Keep: keep, Desc: expr}))
		for _, name := range analysis.SortedNames() {
			v, err := eng.Analysis(name)
			if err != nil {
				continue
			}
			if _, err := EncodeJSON(v); err != nil {
				t.Errorf("%s %s: no error, but the value does not encode: %v", expr, name, err)
			}
		}
	}
	// A slice without a year of five runs has no idle-fraction history
	// to report: an error that says so, not zeros that read as measured.
	keep, err := ParseFilter("vendor=other")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithSource(FilterSource{Inner: SliceSource(runs), Keep: keep, Desc: "vendor=other"}))
	if v, err := eng.Analysis("idlehistory"); err == nil || !strings.Contains(err.Error(), "idlehistory") {
		t.Errorf("vendor=other idlehistory = %+v, %v; want an error naming idlehistory", v, err)
	}
}

// TestFilteredReportBestEffort: a slice on which the trend tests, the
// idle-fraction history or the era comparisons fail still renders a
// report with every other section.
func TestFilteredReportBestEffort(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ expr, failing string }{
		{"since=2021", "trends"},
		{"vendor=other", "idlehistory"},
	} {
		keep, err := ParseFilter(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(WithSource(FilterSource{Inner: SliceSource(runs), Keep: keep, Desc: c.expr}))
		if _, err := eng.Analysis(c.failing); err == nil {
			t.Fatalf("%s: %s succeeded; the test needs a slice it fails on", c.expr, c.failing)
		}
		var buf bytes.Buffer
		if err := eng.WriteReport(&buf); err != nil {
			t.Fatalf("%s: report failed: %v", c.expr, err)
		}
		for _, title := range []string{"Filter funnel", "Figure 3: overall efficiency",
			"Trend tests", "Table I"} {
			if !strings.Contains(buf.String(), title) {
				t.Errorf("%s: report lacks the %q section", c.expr, title)
			}
		}
	}
}
