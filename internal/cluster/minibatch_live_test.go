package cluster_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// minibatchParams resolves the fixed parameterization the live test
// replays: algo=minibatch with an explicit k so every generation
// clusters, plus the default seed.
func minibatchParams(t *testing.T) analysis.Params {
	t.Helper()
	reg, ok := analysis.Lookup("clusters")
	if !ok {
		t.Fatal("clusters not registered")
	}
	p, err := reg.Params.Resolve(map[string]string{"algo": "minibatch", "k": "3"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// appendTranscript replays one fixed append sequence — ingest base,
// then fold in each batch — querying the mini-batch clustering (and its
// profile sibling, concurrently) after every generation, and returns
// the concatenated JSON of everything served.
func appendTranscript(t *testing.T, base []*model.Run, batches [][]*model.Run, p analysis.Params) []byte {
	t.Helper()
	eng := core.New(core.WithSource(core.SliceSource(base)), core.WithWorkers(4))
	var buf bytes.Buffer
	record := func() {
		results, err := eng.RunRequests(
			core.Request{Name: "clusters", Params: p},
			core.Request{Name: "cluster-profiles", Params: p},
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			b, err := json.Marshal(r.Value)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	record()
	for _, batch := range batches {
		if _, err := eng.Append(batch); err != nil {
			t.Fatal(err)
		}
		record()
	}
	return buf.Bytes()
}

// TestMiniBatchAppendSequenceDeterministic is the live-clustering
// acceptance pin: for a fixed seed and a fixed append sequence, the
// mini-batch partition served after every generation is byte-identical
// across 10 independent replays.
func TestMiniBatchAppendSequenceDeterministic(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Three append batches of growing size, carved off the corpus tail
	// so every replay folds in exactly the same runs in the same order.
	n := len(runs)
	base := runs[:n-14]
	batches := [][]*model.Run{runs[n-14 : n-10], runs[n-10 : n-4], runs[n-4:]}
	p := minibatchParams(t)

	want := appendTranscript(t, base, batches, p)
	if len(want) == 0 {
		t.Fatal("empty transcript")
	}
	var result cluster.Result
	if err := json.Unmarshal(bytes.SplitN(want, []byte("\n"), 2)[0], &result); err != nil {
		t.Fatal(err)
	}
	if result.Algo != "minibatch" || result.K != 3 {
		t.Fatalf("transcript leads with algo=%s k=%d, want minibatch k=3", result.Algo, result.K)
	}
	for rep := 1; rep < 10; rep++ {
		got := appendTranscript(t, base, batches, p)
		if !bytes.Equal(got, want) {
			t.Fatalf("replay %d diverged from the first transcript", rep)
		}
	}
}
