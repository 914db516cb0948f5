package serve

import "testing"

func TestParseScopeCanonicalizes(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"   ", ""},
		{",,", ""},
		{"vendor=AMD", "vendor=amd"},
		{"since=2015,vendor=AMD", "since=2015,vendor=amd"},
		{"vendor=AMD,since=2015", "since=2015,vendor=amd"}, // clause order sorted
		{" Vendor=AMD , since=2015 ", "since=2015,vendor=amd"},
		{"vendor=AMD|Intel", "vendor=amd|intel"},
	}
	for _, c := range cases {
		sc, err := parseScope(c.in)
		if err != nil {
			t.Errorf("parseScope(%q): %v", c.in, err)
			continue
		}
		if sc.expr != c.want {
			t.Errorf("parseScope(%q).expr = %q, want %q", c.in, sc.expr, c.want)
		}
		if (sc.keep == nil) != (c.want == "") {
			t.Errorf("parseScope(%q): keep nil-ness inconsistent with expr %q", c.in, c.want)
		}
	}
	for _, bad := range []string{"color=red", "year=abc", "vendor", "since=soon"} {
		if _, err := parseScope(bad); err == nil {
			t.Errorf("parseScope(%q) should fail", bad)
		}
	}
}

// TestEmptyFilterSharesUnfilteredScope: an empty-but-present ?filter=
// (and its whitespace and bare-comma spellings) canonicalizes to the
// absent filter's scope, so the pool holds one engine — not two — for
// the same whole-corpus slice, and every spelling shares its ETag.
func TestEmptyFilterSharesUnfilteredScope(t *testing.T) {
	s, streams := testServer(t, Config{})
	var etags []string
	for _, path := range []string{
		"/v1/analyses/funnel",
		"/v1/analyses/funnel?filter=",
		"/v1/analyses/funnel?filter=%20%20",
		"/v1/analyses/funnel?filter=%2C%2C",
	} {
		rec := get(t, s, path)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		etags = append(etags, rec.Header().Get("ETag"))
	}
	for i, etag := range etags {
		if etag != etags[0] {
			t.Errorf("spelling %d: ETag %q differs from unfiltered %q", i, etag, etags[0])
		}
	}
	st := s.gauges()
	if st.EngineBuilds != 1 || st.PoolEngines != 1 {
		t.Errorf("builds/engines = %d/%d, want 1/1 (empty filter keyed a duplicate scope)",
			st.EngineBuilds, st.PoolEngines)
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("corpus streamed %d times across equal scopes, want 1", got)
	}
}

func TestParseScopeEquivalentSpellingsShareKey(t *testing.T) {
	a, err := parseScope("vendor=AMD, since=2015")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseScope("SINCE=2015,vendor=amd")
	if err != nil {
		t.Fatal(err)
	}
	if a.expr != b.expr {
		t.Errorf("equivalent scopes key differently: %q vs %q", a.expr, b.expr)
	}
}
