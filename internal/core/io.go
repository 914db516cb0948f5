package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/report"
)

// WriteCorpus renders every run into dir as <ID>.txt, sharding the work
// across workers goroutines (0 = GOMAXPROCS).
func WriteCorpus(dir string, runs []*model.Run, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: create corpus dir: %w", err)
	}
	return par.ForEach(len(runs), workers, func(i int) error {
		r := runs[i]
		path := filepath.Join(dir, r.ID+".txt")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("core: create %s: %w", path, err)
		}
		if err := report.Render(f, r); err != nil {
			f.Close()
			return fmt.Errorf("core: render %s: %w", path, err)
		}
		return f.Close()
	})
}
