package parser

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestTruncatedFiles feeds every prefix-truncation of a valid report to
// the parser: each must either parse (possibly with missing fields for
// the consistency checks to catch) or return an error — never panic,
// never return a half-initialized success silently claiming a full
// measurement table.
func TestTruncatedFiles(t *testing.T) {
	full := render(t, sampleRun())
	lines := strings.Split(full, "\n")
	for n := 0; n <= len(lines); n++ {
		text := strings.Join(lines[:n], "\n")
		run, err := Parse(strings.NewReader(text))
		if err != nil {
			continue // rejection is fine
		}
		// If accepted, the invariants must hold.
		if run.ID == "" || len(run.Points) == 0 {
			t.Fatalf("truncation at %d lines accepted without ID/points", n)
		}
	}
}

// TestGarbageInjection splices random garbage lines into a valid report;
// unknown lines must be skipped, and the run must still round-trip its
// key fields.
func TestGarbageInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	garbage := []string{
		"### reviewed by SPEC committee ###",
		"For questions contact info@spec.example",
		"随机的非ASCII行",
		"key without colon value",
		"    ", "\t\t",
	}
	full := render(t, sampleRun())
	lines := strings.Split(full, "\n")
	var out []string
	for _, l := range lines {
		out = append(out, l)
		if rng.Intn(3) == 0 {
			out = append(out, garbage[rng.Intn(len(garbage))])
		}
	}
	run, err := Parse(strings.NewReader(strings.Join(out, "\n")))
	if err != nil {
		t.Fatalf("garbage lines broke parsing: %v", err)
	}
	if run.ID != sampleRun().ID || len(run.Points) != 11 {
		t.Errorf("fields lost under garbage: id=%q points=%d", run.ID, len(run.Points))
	}
	if model.Classify(run) != model.RejectNone {
		t.Errorf("classification changed: %v", model.Classify(run))
	}
}

// TestHugeLine exercises the scanner buffer limit handling.
func TestHugeLine(t *testing.T) {
	text := "SPECpower_ssj2008 Result\nReport ID: x\n" +
		"Notes: " + strings.Repeat("y", 200*1024) + "\n" +
		"Benchmark Results\n100% 5 5\nOverall Score: 1 x\n"
	run, err := Parse(strings.NewReader(text))
	if err != nil {
		// A buffer-limit error is acceptable; a panic is not.
		return
	}
	if run.ID != "x" {
		t.Errorf("ID = %q", run.ID)
	}
}

// TestOverLongLineFails ensures lines beyond the 1 MB buffer produce an
// error rather than silent truncation.
func TestOverLongLineFails(t *testing.T) {
	text := "SPECpower_ssj2008 Result\nReport ID: x\n" +
		strings.Repeat("z", 2*1024*1024) + "\n"
	if _, err := Parse(strings.NewReader(text)); err == nil {
		t.Error("2 MB line should exceed the scanner buffer")
	}
}

// TestDuplicateFieldsLastWins documents the parser's behaviour when a
// field appears twice (some historical reports repeat header blocks).
func TestDuplicateFieldsLastWins(t *testing.T) {
	text := render(t, sampleRun())
	text = strings.Replace(text, "Benchmark Results",
		"Memory (GB):                 999\nBenchmark Results", 1)
	run, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if run.MemGB != 999 {
		t.Errorf("MemGB = %d, want last-wins 999", run.MemGB)
	}
}

// TestNumericFieldGarbage ensures malformed numerics fail loudly rather
// than silently zeroing.
func TestNumericFieldGarbage(t *testing.T) {
	text := render(t, sampleRun())
	text = strings.Replace(text, "Memory (GB):                 384",
		"Memory (GB):                 many", 1)
	if _, err := Parse(strings.NewReader(text)); err == nil {
		t.Error("garbage integer should error")
	}
}

// FuzzParse is a randomized robustness net: the parser must never panic
// on arbitrary input.
func FuzzParse(f *testing.F) {
	f.Add(render(f, sampleRun()))
	f.Add("SPECpower_ssj2008\nReport ID: x\nBenchmark Results\n100% 1 1\nOverall Score: 1 x\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		run, err := Parse(strings.NewReader(input))
		if err == nil && (run.ID == "" || len(run.Points) == 0) {
			t.Fatal("success without mandatory fields")
		}
	})
}
