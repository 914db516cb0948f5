package cluster

import "fmt"

// SweepK runs seeded k-means for every k in [kmin, kmax] and reports
// SSE and silhouette per k, over a fresh fits memo: the sweep the
// registered analyses share, with its range checked. Each point equals,
// to the bit, a KMeans with the same seed at that k plus its
// Silhouette.
func SweepK(m *Matrix, kmin, kmax int, seed int64, workers int) ([]SweepPoint, error) {
	if kmin < 1 || kmin > kmax || kmax > len(m.Rows) {
		return nil, fmt.Errorf("cluster: sweep range [%d, %d] outside [1, %d rows]",
			kmin, kmax, len(m.Rows))
	}
	return newFits(m, seed).sweep(kmin, kmax, workers), nil
}
