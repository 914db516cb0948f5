// Package linttest is the fixture harness for the internal/lint
// analyzers, playing the role golang.org/x/tools' analysistest plays
// upstream: the packages under testdata/src/<analyzer> are loaded and
// analyzed, and every line carrying a `// want "regexp"` comment must
// produce a matching unsuppressed diagnostic — no more, no fewer.
// Fixture files may import module packages (repro/internal/analysis,
// typically, so registrations look real to the call-graph walkers), or
// the fixture may be a module of its own with a go.mod at its root;
// either way it lives under testdata, so the go tool never builds it
// and its deliberate violations stay out of the real tree's gate.
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRE extracts the quoted expectations from a `// want "..." "..."`
// comment.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	re      *regexp.Regexp
	line    int
	matched bool
}

// Run loads every package under the fixture directory as a program and
// checks the given analyzers' unsuppressed diagnostics against its want
// comments.
// Diagnostics outside the fixture directory (in imported module
// packages) are ignored: the real tree's findings are the self-check
// test's business, not the fixtures'.
func Run(t *testing.T, fixtureDir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.ModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := lint.ExpandPatterns(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.Load(root, dirs)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixtureDir, err)
	}

	wants, err := collectWants(t, dir)
	if err != nil {
		t.Fatal(err)
	}

	var inFixture []lint.Diagnostic
	for _, d := range lint.Unsuppressed(lint.Run(prog, analyzers)) {
		if strings.HasPrefix(d.Pos.Filename, dir+string(filepath.Separator)) {
			inFixture = append(inFixture, d)
		}
	}

	for _, d := range inFixture {
		matched := false
		for _, w := range wants[d.Pos.Filename] {
			if w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", file, w.line, w.re)
			}
		}
	}
}

// collectWants scans every fixture file for want comments.
func collectWants(t *testing.T, dir string) (map[string][]*expectation, error) {
	t.Helper()
	wants := map[string][]*expectation{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, quoted := range splitQuoted(m[1]) {
				pattern, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("%s:%d: bad want literal %s: %v", path, i+1, quoted, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pattern, err)
				}
				wants[path] = append(wants[path], &expectation{re: re, line: i + 1})
			}
		}
		return nil
	})
	return wants, err
}

// splitQuoted returns the double-quoted string literals at the start
// of s, in order.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, `"`) {
			return out
		}
		end := 1
		for end < len(s) {
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		if end >= len(s) {
			return out
		}
		out = append(out, s[:end+1])
		s = s[end+1:]
	}
}
