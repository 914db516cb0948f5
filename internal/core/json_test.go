package core

import (
	"bytes"
	"encoding/json"
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
}
