package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath locates the repository's testdata directory from this
// package's working directory.
func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", name)
}

// TestGoldenReportFormat locks the rendered result-file format: any
// format change must be deliberate (regenerate with -update) because
// the parser, the corpus on disk, and downstream consumers all read it.
func TestGoldenReportFormat(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, jsonSample()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := goldenPath(t, "golden_report.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendered report drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}
