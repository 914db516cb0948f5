// Package lint is the repo's custom static-analysis suite: five
// analyzers. Four mechanically enforce the determinism and registry
// invariants every serving guarantee rests on (byte-identical analysis
// output under -race, canonical-param cache/ETag identity, complete
// registry before any engine exists); the fifth keeps the internal API
// down to what the program calls. The example-based tests pin those
// properties for the code that exists today; the analyzers stop the
// next change from silently breaking them.
//
// The suite is self-contained on the standard library's go/ast and
// go/types (the container has no network and no golang.org/x/tools, so
// the usual go/analysis + unitchecker route is unavailable); the driver
// here plays the multichecker's role. cmd/specvet runs it from the
// command line (specvet ./...), CI runs that as a hard gate, and
// TestSuiteCleanOverRepo re-runs it inside go test so plain `go test
// ./...` fails on a new violation too.
//
// The analyzers:
//
//   - nodeterminism: no time.Now, global math/rand, os.Getenv, or
//     goroutine-ordering-sensitive constructs (go statements,
//     multi-clause selects) in any function reachable from a
//     Register/RegisterParams/RegisterStatic-registered analysis func
//     or from the text renderer its analysis.Text option attaches.
//   - mapsort: a range over a map whose keys or values feed append or
//     fmt printing must be followed by a sort call in the same
//     function, so map iteration order never reaches output.
//   - registerinit: analysis.Register* may only be called from an init
//     function or a package-level var initializer, so the registry is
//     complete before any engine exists.
//   - paramaccess: registered analysis funcs read Params through its
//     typed getters; re-parsing a getter's string result (strconv over
//     p.Str, strings.Split of a smuggled list) means the knob should
//     have been declared with the right Kind instead.
//   - testonly: an exported package-level func, type or var under an
//     internal/ directory must be used, by object, in some loaded
//     non-test file outside its own declaration (a type's methods are
//     part of its declaration). Methods and consts are exempt, and so
//     are packages whose name ends in "test", which are test support
//     by Go convention (linttest). It reports only when the program
//     covers every package directory of the module ("./...", the
//     nested perfbench module included); a subtree run cannot see the
//     callers elsewhere and stays quiet. That is why test support is
//     exempt by package name and not by a //lint:allow directive,
//     which a subtree run would report as stale.
//
// Findings the code can justify are suppressed in place with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory: a
// bare directive is itself a diagnostic, so every suppression in the
// tree documents why the construct is safe (for example, a worker pool
// whose results are index-slotted is flagged by nodeterminism's go-
// statement check but cannot reorder output).
//
// Scope: the suite analyzes non-test sources only. Test files exercise
// nondeterminism on purpose (shuffled orders, timeouts), and the
// invariants being enforced are properties of the serving path.
package lint
