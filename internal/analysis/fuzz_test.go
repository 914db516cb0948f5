package analysis_test

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"repro/internal/analysis"
	_ "repro/internal/cluster" // registers the parameterized clustering analyses
	_ "repro/internal/core"    // registers the static analyses
)

// undeclaredKey stands for any key a schema does not declare.
const undeclaredKey = "undeclared"

var canonicalUnescaper = strings.NewReplacer("%26", "&", "%3D", "=", "%25", "%")

// FuzzResolve maps fuzzed (analysis, key, value) pairs onto the live
// registry's declared keys and checks what every serving surface relies
// on: Resolve never panics, every rejection is a BadParamsError (a 400,
// never a 500), a canonical string resolves back to itself, and
// spelling out a default canonicalizes like omitting it.
func FuzzResolve(f *testing.F) {
	names := analysis.SortedNames()
	f.Fuzz(func(t *testing.T, which, k1 uint8, v1 string, k2 uint8, v2 string) {
		reg, _ := analysis.Lookup(names[int(which)%len(names)])
		schema := reg.Params
		keyFor := func(k uint8) string {
			if i := int(k) % (len(schema) + 1); i < len(schema) {
				return schema[i].Name
			}
			return undeclaredKey
		}
		raw := map[string]string{keyFor(k1): v1, keyFor(k2): v2}

		p, err := schema.Resolve(raw)
		if err != nil {
			var bad *analysis.BadParamsError
			if !errors.As(err, &bad) {
				t.Fatalf("%s: Resolve(%q) error %T is not a BadParamsError: %v", reg.Name, raw, err, err)
			}
			return
		}

		canon := p.Canonical()
		again, err := schema.Resolve(splitCanonical(canon))
		if err != nil {
			t.Fatalf("%s: canonical %q of %q does not resolve: %v", reg.Name, canon, raw, err)
		}
		if again.Canonical() != canon {
			t.Fatalf("%s: canonical %q of %q resolves to %q", reg.Name, canon, raw, again.Canonical())
		}

		spelled := maps.Clone(raw)
		for _, par := range schema {
			if spelled[par.Name] == "" {
				spelled[par.Name] = spelledDefault(par)
			}
		}
		full, err := schema.Resolve(spelled)
		if err != nil {
			t.Fatalf("%s: %q with defaults spelled out (%q) fails: %v", reg.Name, raw, spelled, err)
		}
		if full.Canonical() != canon {
			t.Fatalf("%s: spelling out defaults turns %q into %q", reg.Name, canon, full.Canonical())
		}
	})
}

// splitCanonical reads a canonical "k=v&k=v" string back into raw
// inputs, undoing the escaping of separators inside values.
func splitCanonical(canon string) map[string]string {
	raw := map[string]string{}
	if canon == "" {
		return raw
	}
	for _, assign := range strings.Split(canon, "&") {
		key, value, _ := strings.Cut(assign, "=")
		raw[key] = canonicalUnescaper.Replace(value)
	}
	return raw
}

// spelledDefault is the raw input a client would send to ask for a
// parameter's default explicitly; DefaultString leaves a kind's zero
// value blank, which Resolve reads as absent, so those are spelled out.
func spelledDefault(p analysis.Param) string {
	if s := p.DefaultString(); s != "" {
		return s
	}
	switch p.Kind {
	case analysis.KindInt, analysis.KindFloat:
		return "0"
	case analysis.KindBool:
		return "false"
	}
	return ""
}
