package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/stats"
)

// featureDef is one extractable run feature: a registry name and the
// raw-value accessor. Accessors return NaN for missing values (zero
// counts, absent load points); Extract imputes those at the column
// mean after standardization.
type featureDef struct {
	name string
	raw  func(*model.Run) float64
}

// intFeature adapts a count accessor, treating 0 as "missing in
// report" (the model's convention for absent topology fields).
func intFeature(get func(*model.Run) int) func(*model.Run) float64 {
	return func(r *model.Run) float64 {
		if v := get(r); v > 0 {
			return float64(v)
		}
		return math.NaN()
	}
}

// oneHot adapts a vendor membership test to a 0/1 feature.
func oneHot(v model.CPUVendor) func(*model.Run) float64 {
	return func(r *model.Run) float64 {
		if r.CPUVendor == v {
			return 1
		}
		return 0
	}
}

// featureDefs lists every extractable feature in canonical order.
var featureDefs = []featureDef{
	{"score", (*model.Run).OverallOpsPerWatt},
	{"cores", intFeature(func(r *model.Run) int { return r.TotalCores })},
	{"threads", intFeature(func(r *model.Run) int { return r.TotalThreads })},
	{"ghz", func(r *model.Run) float64 {
		if r.NominalGHz > 0 {
			return r.NominalGHz
		}
		return math.NaN()
	}},
	{"mem", intFeature(func(r *model.Run) int { return r.MemGB })},
	{"year", func(r *model.Run) float64 {
		if r.HWAvail.Valid() {
			return r.HWAvail.Frac()
		}
		return math.NaN()
	}},
	{"vendor_intel", oneHot(model.VendorIntel)},
	{"vendor_amd", oneHot(model.VendorAMD)},
	{"vendor_other", oneHot(model.VendorOther)},
}

// FeatureNames lists every extractable feature in canonical order.
func FeatureNames() []string {
	names := make([]string, len(featureDefs))
	for i, f := range featureDefs {
		names[i] = f.name
	}
	return names
}

// Options configures feature extraction.
type Options struct {
	// Features selects a subset of FeatureNames, in the order given
	// (empty = all, in canonical order).
	Features []string
}

// Matrix is the standardized feature matrix: one row per run, one
// column per selected feature. Each column is z-scored over its finite
// entries (stats.Standardize) and missing values are imputed at the
// column mean — 0 in z-space — so every distance below is NaN-free.
//
// A matrix of at most maxDistRows rows also owns its pairwise row
// distances, computed on first use and shared by every Silhouette and
// HAC over it, so Rows must not change once a kernel has run.
type Matrix struct {
	// Features names the columns, in row order.
	Features []string
	// Runs holds the source run of each row, for profiling.
	Runs []*model.Run
	// Rows are the standardized feature vectors, one per run.
	Rows [][]float64

	distOnce sync.Once
	dist     []float64 // see distances
}

// maxDistRows bounds the matrices that keep their pairwise distances:
// 1024² float64s are 8 MiB. Larger matrices compute each distance where
// it is needed, with the same stats.EuclideanDist and so the same bits.
const maxDistRows = 1024

// distances returns the pairwise Euclidean distances of the rows as one
// flat n×n row-major slice (entry i*n+j), computed once and shared by
// every caller; nil when the matrix has more than maxDistRows rows.
// workers bounds the first call's build (0 = GOMAXPROCS). Callers must
// not modify the slice.
func (m *Matrix) distances(workers int) []float64 {
	if len(m.Rows) > maxDistRows {
		return nil
	}
	m.distOnce.Do(func() { m.dist = pairwise(m.Rows, workers) })
	return m.dist
}

// pairwise computes the full symmetric distance matrix of rows, flat
// and row-major. The lower triangle fills on the worker pool (disjoint
// writes); then the upper triangle copies it in mirrorTile × mirrorTile
// tiles, one band of rows per pool task, so each tile's reads and
// writes stay in cache. stats.EuclideanDist is bit-symmetric, so the
// mirror is exact.
func pairwise(rows [][]float64, workers int) []float64 {
	n := len(rows)
	d := make([]float64, n*n)
	_ = par.ForEach(n, workers, func(i int) error {
		row := d[i*n : i*n+i]
		for j := range row {
			row[j] = stats.EuclideanDist(rows[i], rows[j])
		}
		return nil
	})
	_ = par.ForEach((n+mirrorTile-1)/mirrorTile, workers, func(band int) error {
		ilo := band * mirrorTile
		ihi := min(ilo+mirrorTile, n)
		for jlo := ilo; jlo < n; jlo += mirrorTile {
			jhi := min(jlo+mirrorTile, n)
			for i := ilo; i < ihi; i++ {
				for j := max(jlo, i+1); j < jhi; j++ {
					d[i*n+j] = d[j*n+i]
				}
			}
		}
		return nil
	})
	return d
}

// mirrorTile is the side of the tiles pairwise's mirror copies.
const mirrorTile = 32

// Extract builds the standardized feature matrix of runs. Unknown or
// repeated feature names error, listing what is available.
func Extract(runs []*model.Run, opt Options) (*Matrix, error) {
	defs, err := selectFeatures(opt.Features)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		Features: make([]string, len(defs)),
		Runs:     runs,
		Rows:     make([][]float64, len(runs)),
	}
	for i := range m.Rows {
		m.Rows[i] = make([]float64, len(defs))
	}
	col := make([]float64, len(runs))
	for j, def := range defs {
		m.Features[j] = def.name
		for i, r := range runs {
			col[i] = def.raw(r)
		}
		for i, z := range stats.Standardize(col) {
			if math.IsNaN(z) {
				z = 0 // impute missing at the column mean
			}
			m.Rows[i][j] = z
		}
	}
	return m, nil
}

// selectFeatures resolves names against featureDefs (empty = all).
func selectFeatures(names []string) ([]featureDef, error) {
	if len(names) == 0 {
		return featureDefs, nil
	}
	byName := map[string]featureDef{}
	for _, def := range featureDefs {
		byName[def.name] = def
	}
	defs := make([]featureDef, 0, len(names))
	seen := map[string]bool{}
	for _, name := range names {
		def, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown feature %q (available: %s)",
				name, strings.Join(FeatureNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: feature %q selected twice", name)
		}
		seen[name] = true
		defs = append(defs, def)
	}
	return defs, nil
}
