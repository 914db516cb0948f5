package evlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a clock stopped at start.
func fixedClock(start time.Time) func() time.Time {
	return func() time.Time { return start }
}

var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func TestLogfmtEncoding(t *testing.T) {
	var buf bytes.Buffer
	now := fixedClock(t0)
	l := New(&buf, Options{Now: now})
	l.Info("pool_build",
		String("scope", "vendor=amd"),
		String("fingerprint", "abc123"),
		Int("joins", 3),
		Dur("dur", 1234567*time.Nanosecond),
		String("trace_id", ""),
	)
	want := `time=2026-08-07T12:00:00Z level=info event=pool_build ` +
		`scope="vendor=amd" fingerprint=abc123 joins=3 dur=1.235ms trace_id=""` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("logfmt line:\n got %q\nwant %q", got, want)
	}
}

func TestLogfmtQuoting(t *testing.T) {
	var buf bytes.Buffer
	now := fixedClock(t0)
	l := New(&buf, Options{Now: now})
	l.Warn("e", String("a", `has "quotes"`), String("b", "two words"), String("c", "plain"))
	line := buf.String()
	for _, want := range []string{
		`a="has \"quotes\""`, `b="two words"`, ` c=plain`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestJSONEncoding(t *testing.T) {
	var buf bytes.Buffer
	now := fixedClock(t0)
	l := New(&buf, Options{Encoding: JSON, Now: now})
	l.Error("pool_evict", String("scope", "os=linux"), String("reason", "lru"))
	line := buf.String()
	if !strings.HasSuffix(line, "}\n") {
		t.Fatalf("line %q does not end in }\\n", line)
	}
	var m map[string]string
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("unmarshal %q: %v", line, err)
	}
	for k, want := range map[string]string{
		"time": "2026-08-07T12:00:00Z", "level": "error", "event": "pool_evict",
		"scope": "os=linux", "reason": "lru",
	} {
		if m[k] != want {
			t.Errorf("%s = %q, want %q", k, m[k], want)
		}
	}
	// Keys keep emission order: preamble first, attrs after.
	idx := func(s string) int { return strings.Index(line, `"`+s+`"`) }
	if !(idx("time") < idx("level") && idx("level") < idx("event") &&
		idx("event") < idx("scope") && idx("scope") < idx("reason")) {
		t.Errorf("keys out of emission order: %q", line)
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Options{MinLevel: Warn})
	l.Debug("drop_me")
	l.Info("drop_me_too")
	l.Warn("keep")
	l.Error("keep_too")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "event=keep") || !strings.Contains(lines[1], "event=keep_too") {
		t.Errorf("wrong lines survived the level filter: %q", lines)
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	// Every method must be callable on nil without panicking.
	l.Debug("e")
	l.Info("e", String("k", "v"))
	l.Warn("e")
	l.Error("e")
	l.Log(Info, "e")
}

func TestParseEncoding(t *testing.T) {
	if e, err := ParseEncoding("logfmt"); err != nil || e != Logfmt {
		t.Errorf("logfmt: %v/%v", e, err)
	}
	if e, err := ParseEncoding("json"); err != nil || e != JSON {
		t.Errorf("json: %v/%v", e, err)
	}
	for _, bad := range []string{"text", "", "yaml"} {
		if _, err := ParseEncoding(bad); err == nil {
			t.Errorf("ParseEncoding(%q) should fail", bad)
		}
	}
}

// TestConcurrentLogging: lines never interleave — each Write is one
// complete line (run under -race in CI).
func TestConcurrentLogging(t *testing.T) {
	var buf lockedBuffer
	l := New(&buf, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("evt", Int("g", g), Int("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "time=") || !strings.Contains(line, "event=evt") {
			t.Fatalf("malformed line %q", line)
		}
	}
}

// lockedBuffer guards a bytes.Buffer for concurrent writers; the
// logger serializes writes itself, but the race detector needs the
// reader side locked too.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestDurRounding(t *testing.T) {
	if got := Dur("d", 1500*time.Nanosecond).Value; got != "2µs" {
		t.Errorf("Dur = %q, want 2µs", got)
	}
	if got := Bool("b", true).Value; got != "true" {
		t.Errorf("Bool = %q", got)
	}
	if got := Int64("n", -7).Value; got != "-7" {
		t.Errorf("Int64 = %q", got)
	}
}
