package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// A Fingerprinter is a Source that can identify its corpus contents:
// two sources with equal fingerprints deliver the same runs. Serving
// layers use the fingerprint to derive strong cache validators (HTTP
// ETags) without ingesting anything — a directory source, for example,
// fingerprints from file names, sizes, and mtimes, the same identity
// CachedSource invalidates its parse cache by.
type Fingerprinter interface {
	// Fingerprint returns a stable hex digest of the corpus identity.
	Fingerprint() (string, error)
}

// SourceFingerprint returns a stable identity for any Source: the
// source's own Fingerprint when it implements Fingerprinter, otherwise
// a digest of its Name(). The fallback is conservative: it never claims
// two different corpora are equal, it only misses some equalities (two
// differently-named wrappers of the same runs hash apart).
func SourceFingerprint(s Source) (string, error) {
	if fp, ok := s.(Fingerprinter); ok {
		return fp.Fingerprint()
	}
	return Digest("name", s.Name()), nil
}

// Digest hashes its parts into a stable hex digest, each part
// length-prefixed so concatenation ambiguities ("ab"+"c" vs "a"+"bc")
// cannot collide. It is the framing behind every Fingerprint in this
// package; derived validators (the HTTP server's ETags) build on it so
// the framing cannot drift between layers.
func Digest(parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint implements Fingerprinter: the generator options pin the
// corpus exactly (synthesis is deterministic per seed and plan).
func (s SynthSource) Fingerprint() (string, error) {
	return Digest("synth", fmt.Sprintf("%#v", s.Options)), nil
}

// Fingerprint implements Fingerprinter over the run IDs.
func (s SliceSource) Fingerprint() (string, error) {
	parts := make([]string, 0, len(s)+1)
	parts = append(parts, "slice")
	for _, r := range s {
		parts = append(parts, r.ID)
	}
	return Digest(parts...), nil
}

// Fingerprint implements Fingerprinter from the result-file listing:
// relative path, size, and mtime of every corpus file, the same
// identity CachedSource invalidates by. Parsing nothing keeps it cheap
// enough to compute on every live append.
func (s DirSource) Fingerprint() (string, error) {
	return dirFingerprint(s.Dir)
}

// Fingerprint implements Fingerprinter. A cached directory fingerprints
// identically to the plain DirSource over the same files: the cache
// changes how runs are loaded, never which runs are delivered.
func (s CachedSource) Fingerprint() (string, error) {
	return dirFingerprint(s.Dir)
}

func dirFingerprint(dir string) (string, error) {
	paths, err := ListResultFiles(dir)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, 2*len(paths)+1)
	parts = append(parts, "dir")
	for _, p := range paths {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			rel = p
		}
		info, err := os.Stat(p)
		if err != nil {
			return "", fmt.Errorf("core: fingerprint %s: %w", p, err)
		}
		parts = append(parts, rel,
			fmt.Sprintf("%d:%d", info.Size(), info.ModTime().UnixNano()))
	}
	return Digest(parts...), nil
}

// Fingerprint implements Fingerprinter from the inner fingerprint and
// the predicate description. Desc is the predicate's identity — two
// filters with the same Desc over the same corpus are assumed
// equivalent, which holds for every core.ParseFilter expression.
func (s FilterSource) Fingerprint() (string, error) {
	inner, err := SourceFingerprint(s.Inner)
	if err != nil {
		return "", err
	}
	return Digest("filter", s.Desc, inner), nil
}

// Fingerprint implements Fingerprinter over the child fingerprints, in
// stream order.
func (s MergeSource) Fingerprint() (string, error) {
	parts := make([]string, 0, len(s)+1)
	parts = append(parts, "merge")
	for _, src := range s {
		fp, err := SourceFingerprint(src)
		if err != nil {
			return "", err
		}
		parts = append(parts, fp)
	}
	return Digest(parts...), nil
}
