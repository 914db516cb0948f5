package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/model"
)

// AppendSource is a Source that grows while it is being served: an
// inner source (the corpus as booted) plus an in-memory overlay of runs
// appended afterwards, stamped with a generation counter that advances
// on every change. Each streams the inner source first, then the
// overlay in append order, so the stream stays deterministic for a
// fixed append sequence.
//
// The generation composes into the fingerprint, so ETags derived from
// it change exactly when content does — including when the change
// happened underneath the inner source (a watcher dropping a new
// result file into a DirSource's directory advances the generation via
// Bump without duplicating the file into the overlay).
//
// The inner fingerprint is taken once and kept until Bump, the one
// call that says the inner source changed. A DirSource is therefore
// walked on the first Fingerprint and on the first one after each
// Bump, never on one that follows an Append: the overlay changes, the
// directory does not. In the serving pool that means a walk when the
// root is built, after watcher growth and after a reset, and none per
// POST /v1/runs.
//
// All methods are safe for concurrent use.
type AppendSource struct {
	inner Source

	mu       sync.RWMutex
	appended []*model.Run
	gen      uint64
	bumps    uint64 // Bump calls, so a walk can tell it was overtaken
	innerFP  string // inner's fingerprint, "" until taken and after Bump
}

// NewAppendSource wraps inner at generation 0 with an empty overlay.
func NewAppendSource(inner Source) *AppendSource {
	return &AppendSource{inner: inner}
}

// Name implements Source.
func (s *AppendSource) Name() string {
	s.mu.RLock()
	n, gen := len(s.appended), s.gen
	s.mu.RUnlock()
	return fmt.Sprintf("append(%s, +%d@g%d)", s.inner.Name(), n, gen)
}

// Each implements Source: the inner stream, then the overlay in append
// order. The overlay is snapshotted up front, so a stream observes one
// generation's overlay even if appends land while the inner source is
// still draining — callers needing the stream to match a specific
// generation exclude appends for the duration, as the serving pool
// does.
func (s *AppendSource) Each(workers int, yield func(*model.Run) error) error {
	s.mu.RLock()
	overlay := s.appended[:len(s.appended):len(s.appended)]
	s.mu.RUnlock()
	if err := s.inner.Each(workers, yield); err != nil {
		return err
	}
	return SliceSource(overlay).Each(workers, yield)
}

// Append adds runs to the overlay and advances the generation,
// returning the new generation. Use it for runs that exist nowhere
// else (the POST /v1/runs path); runs whose files already joined the
// inner source belong to Bump instead, or they would be delivered
// twice on the next cold ingestion.
func (s *AppendSource) Append(runs ...*model.Run) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appended = append(s.appended, runs...)
	s.gen++
	return s.gen
}

// Bump advances the generation without touching the overlay, for
// growth that happened inside the inner source (new result files in a
// watched directory, or files rewritten under it). It drops the kept
// inner fingerprint, so the next Fingerprint takes it afresh and sees
// the new content; bumping keeps the generation a complete change
// counter.
func (s *AppendSource) Bump() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.bumps++
	s.innerFP = ""
	return s.gen
}

// Generation returns the current generation: the number of Append and
// Bump calls so far.
func (s *AppendSource) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// AppendedRuns reports the overlay size.
func (s *AppendSource) AppendedRuns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.appended)
}

// Fingerprint implements Fingerprinter: the generation, the inner
// fingerprint, and the overlay run IDs, all under one lock so a
// fingerprint never mixes two generations' overlays. The inner
// fingerprint is the kept one: it is taken (for a directory, walked)
// only on first use and after Bump, outside the lock. A walk that a
// Bump overtook is not kept, as it may predate the growth the Bump
// announced, and neither is an error, so the next call retries.
func (s *AppendSource) Fingerprint() (string, error) {
	for {
		s.mu.RLock()
		if s.innerFP != "" {
			parts := make([]string, 0, len(s.appended)+3)
			parts = append(parts, "append", strconv.FormatUint(s.gen, 10), s.innerFP)
			for _, r := range s.appended {
				parts = append(parts, r.ID)
			}
			s.mu.RUnlock()
			return Digest(parts...), nil
		}
		bumps := s.bumps
		s.mu.RUnlock()
		inner, err := SourceFingerprint(s.inner)
		if err != nil {
			return "", err
		}
		s.mu.Lock()
		if s.bumps == bumps {
			s.innerFP = inner
		}
		s.mu.Unlock()
	}
}

// SourceParts implements Parted: the inner source (decomposed if it
// decomposes itself) followed by the overlay as a slice part, so
// ingest traces show booted corpus and live appends separately.
func (s *AppendSource) SourceParts() []Source {
	s.mu.RLock()
	overlay := s.appended[:len(s.appended):len(s.appended)]
	s.mu.RUnlock()
	parts := sourceParts(s.inner)
	if parts == nil {
		parts = []Source{s.inner}
	}
	if len(overlay) > 0 {
		parts = append(parts[:len(parts):len(parts)], SliceSource(overlay))
	}
	return parts
}
