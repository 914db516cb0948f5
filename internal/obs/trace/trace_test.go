package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	pid := "00f067aa0ba902b7"
	valid := "00-" + tid + "-" + pid + "-01"
	cases := []struct {
		in      string
		ok      bool
		why     string
		wantTID string
		wantPID string
	}{
		{valid, true, "canonical header", tid, pid},
		{"01-" + tid + "-" + pid + "-01-extra", true, "future version with trailing fields", tid, pid},
		{"", false, "absent", "", ""},
		{"00-" + tid + "-" + pid + "-01-extra", false, "version 00 admits no trailing fields", "", ""},
		{"ff-" + tid + "-" + pid + "-01", false, "version ff is forbidden", "", ""},
		{"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", false, "all-zero trace id", "", ""},
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, "all-zero parent id", "", ""},
		{"00-" + strings.ToUpper(tid) + "-" + pid + "-01", false, "uppercase hex", "", ""},
		{"00-" + tid[:31] + "-" + pid + "-01x", false, "wrong field widths", "", ""},
		{"garbage", false, "not a header at all", "", ""},
	}
	for _, c := range cases {
		gotTID, gotPID, ok := ParseTraceparent(c.in)
		if ok != c.ok || gotTID != c.wantTID || gotPID != c.wantPID {
			t.Errorf("%s: ParseTraceparent(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.why, c.in, gotTID, gotPID, ok, c.wantTID, c.wantPID, c.ok)
		}
	}
}

// TestTraceparentRoundTrip pins propagation: an inbound header donates
// the trace id, the outbound header carries that id with a fresh local
// root span id, and the outbound header itself parses.
func TestTraceparentRoundTrip(t *testing.T) {
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := New("GET /x", in, time.Now())
	if tr.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("inbound trace id not adopted: %q", tr.TraceID())
	}
	if tr.ParentSpanID() != "00f067aa0ba902b7" {
		t.Fatalf("inbound parent span id not recorded: %q", tr.ParentSpanID())
	}
	out := tr.Traceparent()
	tid, pid, ok := ParseTraceparent(out)
	if !ok {
		t.Fatalf("outbound header %q does not parse", out)
	}
	if tid != tr.TraceID() {
		t.Fatalf("outbound trace id %q, want %q", tid, tr.TraceID())
	}
	if pid == tr.ParentSpanID() {
		t.Fatalf("outbound parent %q must be the local root span, not the inbound parent", pid)
	}

	// A minted trace: fresh nonzero id, no parent.
	minted := New("GET /y", "not-a-header", time.Now())
	if minted.ParentSpanID() != "" {
		t.Fatalf("minted trace has parent %q", minted.ParentSpanID())
	}
	if tid2, _, ok := ParseTraceparent(minted.Traceparent()); !ok || tid2 == tr.TraceID() {
		t.Fatalf("minted traceparent %q invalid or colliding", minted.Traceparent())
	}
}

func TestSnapshotTree(t *testing.T) {
	t0 := time.Unix(100, 0)
	tr := New("root-op", "", t0)
	root := tr.Root()
	root.SetAttr("status", "200")
	a := root.ChildAt("build", t0.Add(time.Millisecond))
	a.FinishAt(t0.Add(3 * time.Millisecond))
	b := root.ChildAt("compute", t0.Add(3*time.Millisecond))
	k := b.ChildAt("kmeans-iteration", t0.Add(4*time.Millisecond))
	k.SetAttr("moved", "17")
	k.FinishAt(t0.Add(5 * time.Millisecond))
	b.FinishAt(t0.Add(6 * time.Millisecond))
	leak := root.ChildAt("leaked", t0.Add(6*time.Millisecond))
	_ = leak // never finished: must render as duration -1, not 0
	root.FinishAt(t0.Add(7 * time.Millisecond))

	snap := tr.Snapshot()
	if snap.DurationNs != (7 * time.Millisecond).Nanoseconds() {
		t.Fatalf("root duration %d", snap.DurationNs)
	}
	if len(snap.Root.Children) != 3 {
		t.Fatalf("children %d, want 3", len(snap.Root.Children))
	}
	if c := snap.Root.Children[0]; c.Name != "build" || c.StartNs != time.Millisecond.Nanoseconds() ||
		c.DurationNs != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("build span %+v", c)
	}
	kc := snap.Root.Children[1].Children[0]
	if kc.Name != "kmeans-iteration" || kc.DurationNs != time.Millisecond.Nanoseconds() {
		t.Fatalf("kernel span %+v", kc)
	}
	if len(kc.Attrs) != 1 || kc.Attrs[0] != (Attr{Key: "moved", Value: "17"}) {
		t.Fatalf("kernel attrs %+v", kc.Attrs)
	}
	if snap.Root.Children[2].DurationNs != -1 {
		t.Fatalf("unfinished span duration %d, want -1", snap.Root.Children[2].DurationNs)
	}

	// The wire form is stable JSON: encode twice, byte-identical.
	j1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(tr.Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
}

// TestConcurrentSpans hammers one trace from many goroutines — child
// creation, attribute writes, double finishes, snapshots mid-flight —
// and relies on the race detector for the verdict.
func TestConcurrentSpans(t *testing.T) {
	tr := New("hammer", "", time.Now())
	root := tr.Root()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := root.ChildAt(fmt.Sprintf("g%d-%d", g, i), time.Now())
				sp.SetAttr("i", fmt.Sprint(i))
				sp.FinishAt(time.Now())
				sp.FinishAt(time.Now()) // double finish keeps the first end
			}
		}(g)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	root.FinishAt(time.Now())
	snap := tr.Snapshot()
	if len(snap.Root.Children) != 800 {
		t.Fatalf("children %d, want 800", len(snap.Root.Children))
	}
	for _, c := range snap.Root.Children {
		if c.DurationNs < 0 {
			t.Fatalf("span %s never finished", c.Name)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if r.Capacity() != 4 {
		t.Fatalf("capacity %d", r.Capacity())
	}
	mk := func(i int) *Trace {
		tr := New(fmt.Sprintf("t%d", i), "", time.Now())
		tr.Root().FinishAt(time.Now())
		return tr
	}
	for i := 0; i < 10; i++ {
		r.Add(mk(i))
	}
	if r.Recorded() != 10 {
		t.Fatalf("recorded %d", r.Recorded())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("resident %d, want 4", len(snap))
	}
	// Newest first: seqs 10, 9, 8, 7 — the first six overwritten.
	for i, want := range []uint64{10, 9, 8, 7} {
		if snap[i].Seq() != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, snap[i].Seq(), want)
		}
	}
	// A partially filled ring reports only occupied slots.
	r2 := NewRing(8)
	r2.Add(mk(0))
	r2.Add(mk(1))
	if got := r2.Snapshot(); len(got) != 2 || got[0].Seq() != 2 {
		t.Fatalf("partial ring snapshot %d traces, head seq %d", len(got), got[0].Seq())
	}
}

func TestRingConcurrentAdd(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := New("c", "", time.Now())
				tr.Root().FinishAt(time.Now())
				r.Add(tr)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Recorded() != 1600 {
		t.Fatalf("recorded %d", r.Recorded())
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("resident %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Seq() <= snap[i].Seq() {
			t.Fatalf("snapshot not newest-first at %d", i)
		}
	}
}
