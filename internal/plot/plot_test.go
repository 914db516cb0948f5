package plot

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func scatterPts() []Pt {
	return []Pt{
		{X: 2007, Y: 120, Class: 0},
		{X: 2015, Y: 200, Class: 1},
		{X: 2023, Y: 330, Class: 0},
		{X: 2024, Y: math.NaN(), Class: 1}, // must be skipped
	}
}

func TestASCIIScatter(t *testing.T) {
	out := ASCIIScatter(scatterPts(), Axes{
		Title: "Power per socket", XLabel: "year", YLabel: "W",
		Width: 40, Height: 10, ClassNames: []string{"AMD", "Intel"},
	})
	for _, want := range []string{"Power per socket", "legend:", "AMD", "Intel", "x:", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "o") {
		t.Error("markers missing")
	}
}

func TestASCIIScatterDegenerate(t *testing.T) {
	// No finite data and single-point data must not panic.
	_ = ASCIIScatter(nil, Axes{})
	_ = ASCIIScatter([]Pt{{X: 1, Y: 1}}, Axes{})
	_ = ASCIIScatter([]Pt{{X: math.NaN(), Y: math.NaN()}}, Axes{})
}

func TestASCIIBoxes(t *testing.T) {
	boxes := []stats.BoxStats{
		stats.Box([]float64{0.6, 0.7, 0.75, 0.8, 0.85}),
		stats.Box([]float64{0.9, 1.0, 1.05, 1.1, 1.2}),
	}
	out := ASCIIBoxes([]string{"2007", "2014"}, boxes, Axes{Width: 50})
	for _, want := range []string{"2007", "2014", "M", "[", "]", "scale:"} {
		if !strings.Contains(out, want) {
			t.Errorf("boxes missing %q:\n%s", want, out)
		}
	}
}

// TestScaleDegenerateRange: a degenerate range must center points on
// the grid, not drop them off-grid at -1 (which silently emptied any
// constant-valued plot).
func TestScaleDegenerateRange(t *testing.T) {
	if got := scale(5, 5, 5, 40); got != 20 {
		t.Errorf("scale on zero-width range = %d, want centered 20", got)
	}
	if got := scale(1, 7, 3, 40); got != 20 {
		t.Errorf("scale on inverted range = %d, want centered 20", got)
	}
	if got := scale(math.NaN(), 0, 10, 40); got != -1 {
		t.Errorf("scale(NaN) = %d, want off-grid -1", got)
	}
	if got := scale(2.5, 0, 10, 40); got != 10 {
		t.Errorf("scale(2.5, 0, 10, 40) = %d, want 10", got)
	}
}

// TestASCIIConstantSeries: a single-year / constant-valued figure must
// still render its markers.
func TestASCIIConstantSeries(t *testing.T) {
	out := ASCIIScatter([]Pt{{X: 2020, Y: 42}, {X: 2020, Y: 42, Class: 1}},
		Axes{Width: 30, Height: 8})
	if !strings.Contains(out, "x") && !strings.Contains(out, "o") {
		t.Errorf("constant scatter rendered empty:\n%s", out)
	}
	boxes := []stats.BoxStats{stats.Box([]float64{1, 1, 1, 1})}
	out = ASCIIBoxes([]string{"2020"}, boxes, Axes{Width: 30})
	if !strings.Contains(out, "M") {
		t.Errorf("constant box rendered empty:\n%s", out)
	}
}

// TestASCIIEmptyAndNaN: empty and all-NaN inputs must not panic and
// still produce a frame.
func TestASCIIEmptyAndNaN(t *testing.T) {
	nan := math.NaN()
	for name, out := range map[string]string{
		"empty-scatter": ASCIIScatter(nil, Axes{Width: 20, Height: 5}),
		"nan-scatter": ASCIIScatter([]Pt{{X: nan, Y: nan}, {X: nan, Y: nan}},
			Axes{Width: 20, Height: 5}),
		"empty-stacked": ASCIIStacked(nil, nil, Axes{Title: "empty", Width: 20}),
	} {
		if out == "" {
			t.Errorf("%s produced no output at all", name)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s leaked NaN into output:\n%s", name, out)
		}
	}
}

// barStarts returns, per chart row, the rune index of the first glyph
// from the sep set; rows without one are skipped.
func barStarts(t *testing.T, out, sep string) []int {
	t.Helper()
	var cols []int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		col, found := 0, false
		for _, r := range line {
			if strings.ContainsRune(sep, r) {
				found = true
				break
			}
			col++
		}
		if found {
			cols = append(cols, col)
		}
	}
	return cols
}

// TestASCIIMultibyteLabels: multibyte labels must not shift the columns
// of box or stacked charts (len counts bytes, not runes).
func TestASCIIMultibyteLabels(t *testing.T) {
	labels := []string{"año", "東京", "plain"}
	assertAligned := func(name, out, sep string) {
		t.Helper()
		cols := barStarts(t, out, sep)
		if len(cols) < len(labels) {
			t.Fatalf("%s: found %d rows, want ≥ %d:\n%s", name, len(cols), len(labels), out)
		}
		for i, c := range cols {
			if c != cols[0] {
				t.Errorf("%s: row %d starts at rune %d, row 0 at %d — labels misaligned:\n%s",
					name, i, c, cols[0], out)
			}
		}
	}
	// Identical box stats per row: the whisker glyphs land on the same
	// chart columns, so any drift comes from label padding.
	box := stats.Box([]float64{1, 2, 3})
	assertAligned("boxes",
		ASCIIBoxes(labels, []stats.BoxStats{box, box, box}, Axes{Width: 20}), "-=[]M|")
	rows := make([]StackedRow, len(labels))
	for i, l := range labels {
		rows[i] = StackedRow{Label: l, Shares: map[string]float64{"a": 0.5, "b": 0.5}}
	}
	assertAligned("stacked", ASCIIStacked(rows, []string{"a", "b"}, Axes{Width: 20}), "|")
}

func TestSVGScatterWellFormed(t *testing.T) {
	out := SVGScatter(scatterPts(), Axes{
		Title: "Overall <efficiency> & more", Width: 80, Height: 30,
		ClassNames: []string{"AMD", "Intel"}, XLabel: "year", YLabel: "ops/W",
	})
	for _, want := range []string{
		"<svg", "</svg>", "<circle", "&lt;efficiency&gt; &amp;", "ops/W",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Count(out, "<circle") < 3 {
		t.Error("expected at least 3 data circles")
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN leaked into svg")
	}
}

func TestSVGLines(t *testing.T) {
	out := SVGLines([]Series{
		{Name: "AMD", X: []float64{2018, 2020, 2024}, Y: []float64{10000, 20000, 35000}},
	}, Axes{Width: 80, Height: 30})
	if !strings.Contains(out, "<polyline") {
		t.Error("polyline missing")
	}
}

func TestSVGBoxes(t *testing.T) {
	boxes := []stats.BoxStats{
		stats.Box([]float64{0.6, 0.7, 0.8}),
		stats.Box([]float64{0.9, 1.0, 1.1}),
	}
	out := SVGBoxes([]string{"a", "b"}, boxes, Axes{Width: 60, Height: 30})
	if strings.Count(out, "<rect") < 3 { // background + 2 boxes
		t.Errorf("boxes missing:\n%s", out)
	}
}

func TestFmtTick(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2500000, "2.5M"}, {12000, "12k"}, {330, "330"}, {0.7, "0.7"},
	}
	for _, c := range cases {
		if got := fmtTick(c.in); got != c.want {
			t.Errorf("fmtTick(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestYRangeOverride(t *testing.T) {
	out := ASCIIScatter(scatterPts(), Axes{Width: 30, Height: 8, YMin: 0, YMax: 1000})
	if !strings.Contains(out, "1k") && !strings.Contains(out, "1000") {
		t.Errorf("forced y max missing:\n%s", out)
	}
}
