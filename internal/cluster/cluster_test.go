package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// testRun builds a run with the given headline features; the single
// load point makes OverallOpsPerWatt() == score exactly.
func testRun(id string, vendor model.CPUVendor, score float64, cores, mem, year int, ghz float64) *model.Run {
	return &model.Run{
		ID:           id,
		CPUVendor:    vendor,
		TotalCores:   cores,
		TotalThreads: 2 * cores,
		NominalGHz:   ghz,
		MemGB:        mem,
		HWAvail:      model.YM(year, time.June),
		Points: []model.LoadPoint{
			{TargetLoad: 100, ActualOps: score * 100, AvgPower: 100},
		},
	}
}

// twoBlobs is a corpus with an obvious split: small old Intel boxes vs
// big new AMD boxes, nPer runs each.
func twoBlobs(nPer int) []*model.Run {
	runs := make([]*model.Run, 0, 2*nPer)
	for i := 0; i < nPer; i++ {
		runs = append(runs, testRun(
			"small-"+string(rune('a'+i)), model.VendorIntel,
			1000+float64(i), 8+i%2, 32, 2010+i%3, 2.5))
	}
	for i := 0; i < nPer; i++ {
		runs = append(runs, testRun(
			"big-"+string(rune('a'+i)), model.VendorAMD,
			20000+float64(100*i), 128+i%2, 1024, 2022+i%3, 3.1))
	}
	return runs
}

// matrixOf is a test helper: rows straight into a Matrix, no runs.
func matrixOf(rows ...[]float64) *Matrix {
	return &Matrix{Features: []string{"x", "y"}, Rows: rows}
}

func TestFeatureNamesAndSelection(t *testing.T) {
	all := FeatureNames()
	if len(all) < 9 || all[0] != "score" {
		t.Fatalf("FeatureNames = %v", all)
	}
	runs := twoBlobs(3)
	m, err := Extract(runs, Options{Features: []string{"cores", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Features, []string{"cores", "score"}) {
		t.Errorf("selected features = %v", m.Features)
	}
	if len(m.Rows) != len(runs) || len(m.Rows[0]) != 2 {
		t.Errorf("matrix shape = %d×%d", len(m.Rows), len(m.Rows[0]))
	}
	if _, err := Extract(runs, Options{Features: []string{"bogus"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown feature") {
		t.Errorf("unknown feature error = %v", err)
	}
	if _, err := Extract(runs, Options{Features: []string{"score", "score"}}); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate feature error = %v", err)
	}
}

func TestExtractStandardizesAndImputes(t *testing.T) {
	runs := twoBlobs(4)
	// Break one run's score and topology: the column z-scores must
	// impute the gaps at 0, never NaN.
	runs[0].Points = nil   // OverallOpsPerWatt → NaN
	runs[1].TotalCores = 0 // missing count
	runs[1].TotalThreads = 0
	m, err := Extract(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range m.Rows {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %d col %d (%s) = %v", i, j, m.Features[j], v)
			}
		}
	}
	// Column means over non-imputed entries are 0 in z-space; the
	// imputed entries equal exactly 0.
	if m.Rows[0][0] != 0 {
		t.Errorf("imputed score = %v, want 0", m.Rows[0][0])
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	runs := twoBlobs(6)
	m, err := Extract(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMeans(m, KMeansOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("two blobs did not converge")
	}
	// All smalls share one label, all bigs the other.
	small, big := res.Labels[0], res.Labels[6]
	if small == big {
		t.Fatalf("blobs merged: labels = %v", res.Labels)
	}
	for i, l := range res.Labels {
		want := small
		if i >= 6 {
			want = big
		}
		if l != want {
			t.Errorf("run %d label = %d, want %d", i, l, want)
		}
	}
	if res.SSE <= 0 || math.IsNaN(res.SSE) {
		t.Errorf("SSE = %v", res.SSE)
	}
}

func TestKMeansBounds(t *testing.T) {
	m := matrixOf([]float64{0, 0}, []float64{1, 1})
	for _, k := range []int{0, 3, -1} {
		if _, err := KMeans(m, KMeansOptions{K: k, Seed: 1}); err == nil {
			t.Errorf("k=%d did not error", k)
		}
	}
	// k == n degenerates to singletons but must work.
	res, err := KMeans(m, KMeansOptions{K: 2, Seed: 1})
	if err != nil || res.SSE != 0 {
		t.Errorf("k=n: res=%+v err=%v", res, err)
	}
}

func TestHACSeparatesBlobsAllLinkages(t *testing.T) {
	runs := twoBlobs(5)
	m, err := Extract(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lk := range []Linkage{LinkageSingle, LinkageComplete, LinkageAverage} {
		res, err := HAC(m, HACOptions{Linkage: lk, K: 2, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", lk, err)
		}
		if res.K != 2 {
			t.Fatalf("%v: K = %d", lk, res.K)
		}
		small, big := res.Labels[0], res.Labels[5]
		if small == big {
			t.Errorf("%v: blobs merged: %v", lk, res.Labels)
		}
		for i, l := range res.Labels {
			want := small
			if i >= 5 {
				want = big
			}
			if l != want {
				t.Errorf("%v: run %d label = %d, want %d", lk, i, l, want)
			}
		}
		if len(res.Merges) != len(runs)-2 {
			t.Errorf("%v: %d merges, want %d", lk, len(res.Merges), len(runs)-2)
		}
	}
}

func TestHACThresholdCut(t *testing.T) {
	runs := twoBlobs(5)
	m, err := Extract(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A huge threshold merges everything; a tiny one merges nothing.
	all, err := HAC(m, HACOptions{Linkage: LinkageAverage, Cut: 1e9})
	if err != nil || all.K != 1 {
		t.Errorf("huge cut: K = %d, err = %v", all.K, err)
	}
	none, err := HAC(m, HACOptions{Linkage: LinkageAverage, Cut: 1e-12})
	if err != nil || none.K != len(runs) {
		t.Errorf("tiny cut: K = %d, err = %v", none.K, err)
	}
	// A threshold between the blob diameters and the blob separation
	// recovers exactly the two blobs — the MicroTrace-style cut.
	two, err := HAC(m, HACOptions{Linkage: LinkageComplete, Cut: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if two.K != 2 {
		t.Errorf("mid cut: K = %d, labels = %v", two.K, two.Labels)
	}
	// Merge distances in the applied prefix never exceed the cut.
	for _, mg := range two.Merges {
		if mg.Dist > 2.0 {
			t.Errorf("merge at %v above the cut", mg.Dist)
		}
	}
}

func TestHACErrors(t *testing.T) {
	m := matrixOf([]float64{0, 0}, []float64{1, 1})
	if _, err := HAC(&Matrix{}, HACOptions{K: 1}); err == nil {
		t.Error("empty matrix did not error")
	}
	if _, err := HAC(m, HACOptions{K: 0}); err == nil {
		t.Error("k=0 without cut did not error")
	}
	if _, err := HAC(m, HACOptions{K: 1, Cut: -1}); err == nil {
		t.Error("negative cut did not error")
	}
	if _, err := HAC(m, HACOptions{Linkage: Linkage(99), K: 1}); err == nil {
		t.Error("unknown linkage did not error")
	}
}

func TestParseLinkage(t *testing.T) {
	for s, want := range map[string]Linkage{
		"single": LinkageSingle, "complete": LinkageComplete, "average": LinkageAverage,
	} {
		got, err := ParseLinkage(s)
		if err != nil || got != want {
			t.Errorf("ParseLinkage(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseLinkage("ward"); err == nil {
		t.Error("unknown linkage parsed")
	}
}

func TestSilhouette(t *testing.T) {
	// Two tight, well-separated pairs: silhouette near 1.
	m := matrixOf(
		[]float64{0, 0}, []float64{0, 0.1},
		[]float64{10, 10}, []float64{10, 10.1})
	labels := []int{0, 0, 1, 1}
	if s := Silhouette(m, labels, 2, 2); s < 0.9 {
		t.Errorf("separated silhouette = %v", s)
	}
	// A deliberately wrong partition scores worse.
	bad := []int{0, 1, 0, 1}
	if s := Silhouette(m, bad, 2, 1); s >= 0.5 {
		t.Errorf("shuffled silhouette = %v, want low", s)
	}
	// Undefined cases return 0, never NaN.
	if s := Silhouette(m, []int{0, 0, 0, 0}, 1, 0); s != 0 {
		t.Errorf("k=1 silhouette = %v", s)
	}
	same := matrixOf([]float64{1, 1}, []float64{1, 1}, []float64{1, 1})
	if s := Silhouette(same, []int{0, 1, 0}, 2, 0); math.IsNaN(s) {
		t.Errorf("identical-point silhouette = %v", s)
	}
}

func TestSweepAndAutoK(t *testing.T) {
	// Three separated blobs: the silhouette sweep must pick k=3.
	var rows [][]float64
	for _, c := range [][]float64{{0, 0}, {10, 0}, {0, 10}} {
		for i := 0; i < 5; i++ {
			rows = append(rows, []float64{c[0] + float64(i)*0.01, c[1] - float64(i)*0.01})
		}
	}
	m := matrixOf(rows...)
	sweep, err := SweepK(m, 2, 6, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 5 || sweep[0].K != 2 || sweep[4].K != 6 {
		t.Fatalf("sweep shape: %+v", sweep)
	}
	for _, p := range sweep {
		if math.IsNaN(p.SSE) || math.IsNaN(p.Silhouette) {
			t.Errorf("k=%d has NaN metrics: %+v", p.K, p)
		}
	}
	if k := AutoK(sweep); k != 3 {
		t.Errorf("AutoK = %d, want 3 (sweep %+v)", k, sweep)
	}
	if _, err := SweepK(m, 0, 3, 1, 0); err == nil {
		t.Error("kmin=0 did not error")
	}
	if AutoK(nil) != 0 {
		t.Error("AutoK(nil) != 0")
	}
}

func TestProfiles(t *testing.T) {
	runs := twoBlobs(4)
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	ps := Profiles(runs, labels, 2)
	if len(ps) != 2 {
		t.Fatalf("%d profiles", len(ps))
	}
	smalls, bigs := ps[0], ps[1]
	if smalls.DominantVendor != "Intel" || smalls.VendorShare != 1 {
		t.Errorf("small blob vendor = %s (%.2f)", smalls.DominantVendor, smalls.VendorShare)
	}
	if bigs.DominantVendor != "AMD" {
		t.Errorf("big blob vendor = %s", bigs.DominantVendor)
	}
	if smalls.MedianCores >= bigs.MedianCores {
		t.Errorf("median cores: small %v, big %v", smalls.MedianCores, bigs.MedianCores)
	}
	if smalls.Size != 4 || math.Abs(smalls.Share-0.5) > 1e-12 {
		t.Errorf("size/share = %d/%v", smalls.Size, smalls.Share)
	}
	if smalls.YearMin != 2010 || smalls.YearMax != 2012 {
		t.Errorf("small years = %d–%d", smalls.YearMin, smalls.YearMax)
	}
	if bigs.MedianScore <= smalls.MedianScore {
		t.Errorf("median score: small %v, big %v", smalls.MedianScore, bigs.MedianScore)
	}
	// The rendered table mentions every cluster and the vendor names.
	table := ProfileSet{Algo: "kmeans++", K: 2, Silhouette: 0.9, Profiles: ps}.String()
	for _, want := range []string{"kmeans++", "Intel", "AMD", "silhouette"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestNewResult(t *testing.T) {
	runs := twoBlobs(3)
	m, err := Extract(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	km, err := KMeans(m, KMeansOptions{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sil := Silhouette(m, km.Labels, km.K, 0)
	res := newResult("kmeans++", m, km.Labels, km.K, sil)
	if res.K != 2 || res.Silhouette != sil || len(res.Assignments) != len(runs) {
		t.Fatalf("result shape: %+v", res)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(runs) {
		t.Errorf("sizes sum to %d, want %d", total, len(runs))
	}
	for i, a := range res.Assignments {
		if a.ID != runs[i].ID || a.Cluster != km.Labels[i] {
			t.Errorf("assignment %d = %+v", i, a)
		}
	}
	if math.Abs(res.SSE-km.SSE) > 1e-9 {
		t.Errorf("SSE %v vs kmeans %v", res.SSE, km.SSE)
	}
}
