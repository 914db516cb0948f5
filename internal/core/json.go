package core

import (
	"bytes"
	"encoding/json"
)

// EncodeJSON renders v as the module's one indented JSON form: the
// bytes specserve serves, specanalyze -json prints and specparse
// -format json writes. It is json.Encoder's compact form, HTML escaping
// on, re-indented in one pass by indentJSON. The bytes equal
// Encoder.SetIndent("", "  ")'s, which TestEncodeJSONMatchesEncoder
// (internal/serve) and FuzzIndentJSON pin, without its second run of
// the JSON scanner over every byte. specserve encodes an analysis
// response once per memoized value, not once per request: it stores
// the bytes and their digest on the engine's memo entry and serves
// every later hit from there.
func EncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	// Indenting grows a served body by about half; size for that once.
	return indentJSON(make([]byte, 0, buf.Len()*8/5), buf.Bytes()), nil
}

// indentJSON appends src, JSON as json.Encoder writes it, to dst with
// two spaces of indent per level, as json.Indent(dst, src, "", "  ")
// would: "{}" and "[]" stay inline, ": " follows every key, a newline
// and the level's indent follow every opening bracket and comma and
// precede every closing one, and src's trailing newline is kept.
// Encoder output has no whitespace outside strings, so the scan tracks
// only whether it is inside a string and whether a backslash escapes
// the next byte.
func indentJSON(dst, src []byte) []byte {
	depth, done := 0, 0 // src[:done] is in dst
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
			continue
		case '{', '[', '}', ']', ',', ':':
		default:
			continue
		}
		dst = append(dst, src[done:i]...)
		done = i + 1
		switch c {
		case '{', '[':
			if done < len(src) && (src[done] == '}' || src[done] == ']') {
				dst = append(dst, c, src[done])
				i++
				done++
				continue
			}
			depth++
			dst = appendIndentLine(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(appendIndentLine(dst, depth), c)
		case ',':
			dst = appendIndentLine(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		}
	}
	return append(dst, src[done:]...)
}

// appendIndentLine starts a new line indented to depth.
func appendIndentLine(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
