package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over its fixture package: every `// want`
// comment must be hit by an unsuppressed diagnostic, every diagnostic
// must be wanted, and the nearest legitimate patterns (seeded private
// rand, sorted map range, var-initializer registration, typed getter
// reads, Canonical as a memo key, a method or const nobody uses) must
// stay silent.

func TestNoDeterminismFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/nodeterminism", lint.NoDeterminism)
}

func TestMapSortFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/mapsort", lint.MapSort)
}

func TestRegisterInitFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/registerinit", lint.RegisterInit)
}

func TestParamAccessFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/paramaccess", lint.ParamAccess)
}

// The testonly fixture is a module of its own (it has a go.mod), so
// the fixture load covers its whole module and the analyzer reports.
func TestTestOnlyFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/testonly", lint.TestOnly)
}

// TestTestOnlyQuietOnSubtree: a load of part of the module cannot see
// the callers elsewhere, so testonly must report nothing rather than
// flag every export of the loaded packages that only the rest of the
// module calls.
func TestTestOnlyQuietOnSubtree(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.Load(root, []string{"internal/stats"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(prog, []*lint.Analyzer{lint.TestOnly}) {
		t.Errorf("subtree run reported: %s", d)
	}
}

// TestAllowDirectiveHygiene pins the escape hatch's own contract over
// the allow fixture: a reasoned directive suppresses (and surfaces its
// reason), a bare directive and a stale directive are findings in
// their own right. Checked by hand rather than through want comments —
// a directive's diagnostic lands on the directive's own comment line,
// where no second comment can sit.
func TestAllowDirectiveHygiene(t *testing.T) {
	dir, err := filepath.Abs("testdata/src/allowhygiene")
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.ModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.Load(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, bareFinding, bareDirective, stale int
	for _, d := range lint.Run(prog, []*lint.Analyzer{lint.MapSort}) {
		if !strings.HasPrefix(d.Pos.Filename, dir) {
			continue
		}
		switch {
		case d.Suppressed:
			suppressed++
			if !strings.Contains(d.Reason, "set comparison") {
				t.Errorf("suppressed diagnostic lost its reason: %s", d)
			}
		case d.Analyzer == "mapsort":
			bareFinding++
		case d.Analyzer == "allow" && strings.Contains(d.Message, "needs an analyzer name and a reason"):
			bareDirective++
		case d.Analyzer == "allow" && strings.Contains(d.Message, "stale"):
			stale++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if suppressed != 1 || bareFinding != 1 || bareDirective != 1 || stale != 1 {
		t.Errorf("got suppressed=%d bare finding=%d bare directive=%d stale=%d, want 1 of each",
			suppressed, bareFinding, bareDirective, stale)
	}
}
