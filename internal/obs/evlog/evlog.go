package evlog

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Level is an event's severity. Events below a Logger's minimum level
// are dropped before encoding.
type Level int8

// Levels, in increasing severity.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the level's lowercase wire form.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// Attr is one ordered key/value pair attached to an event. Values are
// strings on the wire in both encodings; the typed constructors below
// render numbers and booleans canonically, so greps and parsers see one
// spelling per type.
type Attr struct {
	Key   string
	Value string
}

// String returns a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer-valued attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Int64 returns an integer-valued attribute.
func Int64(key string, v int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(v, 10)}
}

// Bool returns a boolean-valued attribute ("true"/"false").
func Bool(key string, v bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(v)}
}

// Dur returns a duration-valued attribute, rendered as Go duration
// syntax rounded to microseconds ("1.234ms").
func Dur(key string, d time.Duration) Attr {
	return Attr{Key: key, Value: d.Round(time.Microsecond).String()}
}

// Encoding selects the wire format of a Logger.
type Encoding int8

const (
	// Logfmt renders one space-separated key=value line per event,
	// quoting values that contain spaces, quotes, or '=' (and empty
	// values), so lines stay grep- and cut-friendly.
	Logfmt Encoding = iota
	// JSON renders one JSON object per line with keys in emission order
	// (time, level, event, then attrs), values all strings.
	JSON
)

// ParseEncoding maps the -log-format spellings to an Encoding; any
// other spelling, "text" included, is an error.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "logfmt":
		return Logfmt, nil
	case "json":
		return JSON, nil
	default:
		return 0, fmt.Errorf("evlog: unknown encoding %q (logfmt or json)", s)
	}
}

// Options configure a Logger. The zero value is logfmt at Debug level
// with the real clock.
type Options struct {
	// Encoding selects the wire format (default Logfmt).
	Encoding Encoding
	// MinLevel drops events below this severity (default Debug: keep
	// everything).
	MinLevel Level
	// Now overrides the clock, for deterministic test output (default
	// time.Now).
	Now func() time.Time
}

// Logger is a structured, leveled event logger. Each event is one line:
// a timestamp, a level, an event name, and ordered key/value attributes
// — specserve's one log: requests, pool, audit batcher, watcher and
// process lifecycle, with trace_id attrs correlating lines to
// /v1/traces.
//
// A nil *Logger is a valid no-op receiver for every method, so call
// sites thread one pointer through unconditionally instead of branching
// on "is logging on".
//
// All methods are safe for concurrent use; lines are written atomically
// (one Write per event) under an internal lock.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	enc Encoding
	min Level
	now func() time.Time
	buf []byte // line buffer reused under mu
}

// New returns a Logger writing to w.
func New(w io.Writer, opts Options) *Logger {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Logger{w: w, enc: opts.Encoding, min: opts.MinLevel, now: opts.Now}
}

// Log emits one event at the given level. Attrs render in argument
// order after the time/level/event preamble.
func (l *Logger) Log(level Level, event string, attrs ...Attr) {
	if l == nil || level < l.min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.encode(l.buf[:0], l.now(), level, event, attrs)
	_, _ = l.w.Write(l.buf)
}

// Debug emits a Debug-level event.
func (l *Logger) Debug(event string, attrs ...Attr) { l.Log(Debug, event, attrs...) }

// Info emits an Info-level event.
func (l *Logger) Info(event string, attrs ...Attr) { l.Log(Info, event, attrs...) }

// Warn emits a Warn-level event.
func (l *Logger) Warn(event string, attrs ...Attr) { l.Log(Warn, event, attrs...) }

// Error emits an Error-level event.
func (l *Logger) Error(event string, attrs ...Attr) { l.Log(Error, event, attrs...) }

// encode appends the event's line to b.
func (l *Logger) encode(b []byte, now time.Time, level Level, event string, attrs []Attr) []byte {
	if l.enc == JSON {
		return encodeJSON(b, now, level, event, attrs)
	}
	return encodeLogfmt(b, now, level, event, attrs)
}

// needsQuote reports whether a logfmt value must be quoted: empty, or
// containing a space, quote, equals sign, or control character.
func needsQuote(v string) bool {
	if v == "" {
		return true
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return true
		}
	}
	return false
}

func appendLogfmtValue(b []byte, v string) []byte {
	if !needsQuote(v) {
		return append(b, v...)
	}
	return strconv.AppendQuote(b, v)
}

func encodeLogfmt(b []byte, now time.Time, level Level, event string, attrs []Attr) []byte {
	b = append(b, "time="...)
	b = now.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, " level="...)
	b = append(b, level.String()...)
	b = append(b, " event="...)
	b = appendLogfmtValue(b, event)
	for _, a := range attrs {
		b = append(b, ' ')
		b = append(b, a.Key...)
		b = append(b, '=')
		b = appendLogfmtValue(b, a.Value)
	}
	return append(b, '\n')
}

func appendJSONString(b []byte, v string) []byte {
	// json.Marshal of a string cannot fail and gives exactly the quoted,
	// escaped form the exposition needs.
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}

func encodeJSON(b []byte, now time.Time, level Level, event string, attrs []Attr) []byte {
	// An RFC 3339 timestamp holds nothing JSON must escape.
	b = append(b, `{"time":"`...)
	b = now.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":`...)
	b = appendJSONString(b, level.String())
	b = append(b, `,"event":`...)
	b = appendJSONString(b, event)
	for _, a := range attrs {
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		b = appendJSONString(b, a.Value)
	}
	return append(b, "}\n"...)
}
