package evlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// writeRecorder keeps each Write call separately, so a test can tell
// one line per event from one event split across writes.
type writeRecorder struct{ writes [][]byte }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// FuzzEncode pins the encoder contract for arbitrary event names and
// attribute values: each Log is one Write of one line whose only '\n'
// ends it; each logfmt value reads back to its input (through
// strconv.Unquote when quoted); and each JSON line decodes to time,
// level, event, then the attributes in emission order, with values
// equal to the input whenever the input is valid UTF-8.
func FuzzEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, level uint8, event, v0, v1, v2 string) {
		lvl := Level(level % 4)
		attrs := []Attr{String("a", v0), String("b", v1), String("c", v2)}
		want := []string{"time", "level", "event", "a", "b", "c"}
		wantVals := []string{t0.Format(time.RFC3339Nano), lvl.String(), event, v0, v1, v2}

		for _, enc := range []Encoding{Logfmt, JSON} {
			var w writeRecorder
			New(&w, Options{Encoding: enc, Now: fixedClock(t0)}).Log(lvl, event, attrs...)
			if len(w.writes) != 1 {
				t.Fatalf("encoding %d: %d writes, want 1", enc, len(w.writes))
			}
			line := string(w.writes[0])
			if strings.IndexByte(line, '\n') != len(line)-1 {
				t.Fatalf("encoding %d: line %q does not end in its only newline", enc, line)
			}
			line = line[:len(line)-1]

			var keys, vals []string
			var err error
			if enc == Logfmt {
				keys, vals, err = parseLogfmt(line)
			} else {
				keys, vals, err = parseJSONLine(line)
			}
			if err != nil {
				t.Fatalf("encoding %d: line %q: %v", enc, line, err)
			}
			if strings.Join(keys, ",") != strings.Join(want, ",") {
				t.Fatalf("encoding %d: keys %q, want %q (line %q)", enc, keys, want, line)
			}
			for i, v := range vals {
				if enc == JSON && !utf8.ValidString(wantVals[i]) {
					continue // JSON replaces invalid bytes with U+FFFD
				}
				if v != wantVals[i] {
					t.Fatalf("encoding %d: %s = %q, want %q (line %q)", enc, keys[i], v, wantVals[i], line)
				}
			}
		}
	})
}

// parseLogfmt splits a logfmt line into its keys and values, unquoting
// quoted values.
func parseLogfmt(line string) (keys, vals []string, err error) {
	for len(line) > 0 {
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, nil, fmt.Errorf("no '=' in %q", line)
		}
		keys, line = append(keys, line[:eq]), line[eq+1:]
		var v string
		if strings.HasPrefix(line, `"`) {
			q, err := strconv.QuotedPrefix(line)
			if err != nil {
				return nil, nil, err
			}
			if v, err = strconv.Unquote(q); err != nil {
				return nil, nil, err
			}
			line = line[len(q):]
		} else {
			end := strings.IndexByte(line, ' ')
			if end < 0 {
				end = len(line)
			}
			v, line = line[:end], line[end:]
		}
		vals = append(vals, v)
		if line != "" {
			if line[0] != ' ' {
				return nil, nil, fmt.Errorf("no space before %q", line)
			}
			line = line[1:]
		}
	}
	return keys, vals, nil
}

// parseJSONLine decodes one JSON object of string values, keeping its
// keys in document order.
func parseJSONLine(line string) (keys, vals []string, err error) {
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil, fmt.Errorf("no opening brace: %v", err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		v, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		ks, kok := k.(string)
		vs, vok := v.(string)
		if !kok || !vok {
			return nil, nil, fmt.Errorf("non-string pair %v: %v", k, v)
		}
		keys, vals = append(keys, ks), append(vals, vs)
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return nil, nil, fmt.Errorf("no closing brace: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, fmt.Errorf("trailing data after the object: %v", err)
	}
	return keys, vals, nil
}
