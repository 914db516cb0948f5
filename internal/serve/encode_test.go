package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
)

// referenceEncodeJSON is core.EncodeJSON as it was before the one-pass
// indent: Encoder.SetIndent, whose second pass runs the JSON scanner
// over every byte. Every indented byte the module writes must stay
// equal to its output.
func referenceEncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rawSpaced is a Marshaler whose output has whitespace everywhere JSON
// allows it; the Encoder compacts it before the indenter sees it.
type rawSpaced struct{}

func (rawSpaced) MarshalJSON() ([]byte, error) {
	return []byte(" {\n\t\"a\" : [ 1 , { } , [ ] , \"x : y\" ] ,\r\n \"b\" : { \"c\" : null } } "), nil
}

// encodeCases are the hand-written values TestEncodeJSONMatchesEncoder
// checks besides the served analysis bodies: escapes and backslash runs
// before a quote, structural bytes inside strings and keys, HTML and
// line-separator escapes, invalid UTF-8, empty and nested-empty
// containers, and top-level scalars.
func encodeCases() map[string]any {
	return map[string]any{
		"quote":          `say "hi"`,
		"backslashes":    []string{`\`, `\\`, `\"`, `\\"`, `\\\"`, `a\\\\"b"`, `"\`},
		"structural":     []string{":", ",", "{", "[", "}", "]", `{"a":[1,2]}`, ", : { [ ] }"},
		"structural-key": map[string]int{"a:b": 1, "c,d": 2, "{[": 3, `"q"`: 4, `\`: 5},
		"html":           "<script>&amp;</script>",
		"separators":     "line\u2028para\u2029end",
		"controls":       "tab\tnewline\ncr\rnul\x00",
		"invalid-utf8":   "bad\xff\xfebytes\xc3",
		"unicode":        "héllo, 世界 🙂",
		"empty-object":   map[string]any{},
		"empty-array":    []int{},
		"nested-empty": map[string]any{
			"a": []any{}, "b": map[string]any{}, "c": []any{[]any{}, map[string]any{}, []any{[]any{}}},
			"d": map[string]any{"e": map[string]any{"f": []any{}}},
		},
		"mixed":      []any{1, "two", 3.5, true, false, nil, map[string]any{"k": []any{1, []any{2, []any{3}}}}},
		"marshaler":  rawSpaced{},
		"raw":        json.RawMessage(` [ "a" , {"b" :1} ] `),
		"nil-slice":  []int(nil),
		"nil-map":    map[string]int(nil),
		"int":        42,
		"negative":   -1.25e-300,
		"big":        1e21,
		"string":     "top-level",
		"bool":       true,
		"nil":        nil,
		"empty-key":  map[string]string{"": ""},
		"deep-array": [][][]int{{{1, 2}, {}}, {}},
	}
}

// TestEncodeJSONMatchesEncoder pins core.EncodeJSON's bytes to
// Encoder's SetIndent output: every registered analysis at default
// parameters, the explore scope analyses under vendor and year filters,
// the clustering family with explicit k and seed, the result array
// specanalyze -json writes, the run array specparse -format json
// writes, and hand-written values aimed at the indenter's string and
// escape handling.
func TestEncodeJSONMatchesEncoder(t *testing.T) {
	check := func(label string, v any) {
		t.Helper()
		got, err := core.EncodeJSON(v)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := referenceEncodeJSON(v)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: core.EncodeJSON differs from SetIndent\ngot:\n%s\nwant:\n%s", label, got, want)
		}
	}
	base := core.SliceSource(defaultRuns(t))
	eng := core.New(core.WithSource(base))
	results, err := eng.RunRequests()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := eng.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]report.JSONRun, len(ds.Comparable))
	for i, r := range ds.Comparable {
		runs[i] = report.ToJSONRun(r)
	}
	cases := encodeCases()
	cases["specanalyze -json"] = results
	cases["specparse -format json"] = runs
	for label, v := range cases {
		check(label, v)
	}

	for _, name := range analysis.SortedNames() {
		reg, _ := analysis.Lookup(name)
		v, err := eng.Analysis(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, analysisResponse{Name: name, Description: reg.Description, Value: v})
	}
	for _, expr := range []string{"vendor=amd,year=2005-2016", "vendor=intel,year=2009-2023", "vendor=amd|intel,year=2012-2020"} {
		sc, err := parseScope(expr)
		if err != nil {
			t.Fatal(err)
		}
		scoped := core.New(core.WithSource(core.FilterSource{Inner: base, Keep: sc.keep, Desc: sc.expr}))
		for _, name := range []string{"fig2", "fig3", "fig5", "funnel", "ep"} {
			reg, _ := analysis.Lookup(name)
			v, err := scoped.Analysis(name)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.expr, name, err)
			}
			check(sc.expr+" "+name, analysisResponse{Name: name, Description: reg.Description, Filter: sc.expr, Value: v})
		}
	}
	for _, req := range []struct {
		name string
		raw  map[string]string
	}{
		{"clusters", map[string]string{"k": "4", "seed": "7"}},
		{"clusters", map[string]string{"k": "3", "seed": "11", "algo": "hac"}},
		{"cluster-profiles", map[string]string{"k": "5", "seed": "3"}},
		{"cluster-sweep", map[string]string{"seed": "9", "kmax": "6"}},
	} {
		reg, _ := analysis.Lookup(req.name)
		params, err := reg.Params.Resolve(req.raw)
		if err != nil {
			t.Fatalf("%s %v: %v", req.name, req.raw, err)
		}
		v, err := eng.AnalysisRequest(core.Request{Name: req.name, Params: params})
		if err != nil {
			t.Fatalf("%s %v: %v", req.name, req.raw, err)
		}
		check(req.name+"?"+params.Canonical(), analysisResponse{Name: req.name, Description: reg.Description,
			Params: params.Canonical(), Value: v})
	}
}
