// Package jsonwrite appends indented JSON without reflection, the writing
// half of the repository's hand-written codecs (see jsonread). A writer
// drives an Indent through the fixed schema it knows, one call per value,
// and the bytes are exactly those json.MarshalIndent(v, "", "  ") renders
// for the matching Go value:
//
//   - map keys in sorted (bytewise) order;
//   - null for a nil map or slice, {} and [] for empty ones;
//   - strings escaped HTML-safe, as encoding/json does by default: <, >
//     and & become \u003c, \u003e and \u0026, U+2028 and U+2029
//     become \u2028 and \u2029, and each byte of invalid UTF-8 becomes
//     \ufffd.
//
// The store's bundles, incremental sidecars and name index and `polora
// extract` snapshots are written with it; their tests keep
// json.MarshalIndent as the reference.
package jsonwrite

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Indent appends one indented JSON document. The zero value is ready to
// use. Callers open and close containers in pairs and write exactly one
// value after each Key.
type Indent struct {
	buf      []byte
	depth    int  // containers open
	first    bool // the container just opened has no member yet
	afterKey bool // a key was written and its value is next
}

// Bytes returns the document written so far.
func (w *Indent) Bytes() []byte { return w.buf }

// newline starts a line indented to depth d.
func (w *Indent) newline(d int) {
	w.buf = append(w.buf, '\n')
	for i := 0; i < d; i++ {
		w.buf = append(w.buf, "  "...)
	}
}

// member separates the next value from what precedes it: nothing after a
// key or at the top level, else a comma after an earlier member and a new
// line.
func (w *Indent) member() {
	if w.afterKey {
		w.afterKey = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.first {
		w.buf = append(w.buf, ',')
	}
	w.first = false
	w.newline(w.depth)
}

func (w *Indent) open(c byte) {
	w.member()
	w.buf = append(w.buf, c)
	w.depth++
	w.first = true
}

// close ends the innermost container. An empty one closes right after
// it opened, as {} or [].
func (w *Indent) close(c byte) {
	w.depth--
	if !w.first {
		w.newline(w.depth)
	}
	w.first = false
	w.buf = append(w.buf, c)
}

// BeginObject opens an object.
func (w *Indent) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Indent) EndObject() { w.close('}') }

// Key writes an object member's key; its value comes next.
func (w *Indent) Key(k string) {
	w.member()
	w.buf = appendString(w.buf, k)
	w.buf = append(w.buf, ':', ' ')
	w.afterKey = true
}

// String writes a string.
func (w *Indent) String(s string) {
	w.member()
	w.buf = appendString(w.buf, s)
}

// Int writes an integer.
func (w *Indent) Int(n int64) {
	w.member()
	w.buf = strconv.AppendInt(w.buf, n, 10)
}

// Bool writes true or false.
func (w *Indent) Bool(b bool) {
	w.member()
	w.buf = strconv.AppendBool(w.buf, b)
}

func (w *Indent) null() {
	w.member()
	w.buf = append(w.buf, "null"...)
}

// Strings writes a string slice: null when it is nil.
func (w *Indent) Strings(s []string) {
	if s == nil {
		w.null()
		return
	}
	w.open('[')
	for _, v := range s {
		w.String(v)
	}
	w.close(']')
}

// StringMap writes a map of strings, keys sorted: null when it is nil.
func (w *Indent) StringMap(m map[string]string) {
	if m == nil {
		w.null()
		return
	}
	w.BeginObject()
	for _, k := range sortedKeys(m) {
		w.Key(k)
		w.String(m[k])
	}
	w.EndObject()
}

// StringsMap writes a map of string slices, keys sorted: null when it is
// nil.
func (w *Indent) StringsMap(m map[string][]string) {
	if m == nil {
		w.null()
		return
	}
	w.BeginObject()
	for _, k := range sortedKeys(m) {
		w.Key(k)
		w.Strings(m[k])
	}
	w.EndObject()
}

// Raw writes a json.RawMessage that is already valid JSON, as Marshal
// embeds one: compacted, escaped HTML-safe and indented to its depth.
func (w *Indent) Raw(raw []byte) error {
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return err
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	w.member()
	out := bytes.NewBuffer(w.buf)
	if err := json.Indent(out, escaped.Bytes(), strings.Repeat("  ", w.depth), "  "); err != nil {
		return err
	}
	w.buf = out.Bytes()
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

const hex = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on (its default).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// The other control bytes, and <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
