// Package jsonread is a one-pass reader for JSON held in memory, the
// shared half of the repository's hand-written decoders: policy import
// (policy.ImportJSON) and the batch client's frame-header decoder. A decoder
// drives a Reader through the fixed schema it knows, one step per value,
// and builds its result as it reads, without reflection.
//
// A Reader accepts only input that is valid JSON throughout, inside
// skipped values too, and decides every value the way encoding/json
// decides it for a struct field of the matching Go type:
//
//   - a key matches exactly after unescaping, or else under
//     bytes.EqualFold;
//   - null leaves a string or int unchanged and leaves an array empty;
//   - a value of the wrong JSON type is an error, and an int must parse
//     with strconv.ParseInt;
//   - strings decode escapes, surrogate pairs and invalid UTF-8 exactly
//     as encoding/json does, by handing it any string that needs it;
//   - nesting deeper than MaxDepth is a syntax error.
//
// One deliberate narrowing: an object that names a known key twice is
// rejected with ErrDuplicateKey. encoding/json would keep the last
// scalar and decode a repeated array element by element into the first
// one's elements. No writer produces such input, and accepting it means
// guessing what it says.
//
// Errors are sticky: after the first, every step does nothing and
// returns its field's old value or a zero value, so a decoder checks Err
// once at the end.
package jsonread

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit; deeper input is a syntax
// error there, so it is one here.
const MaxDepth = 10000

// ErrDuplicateKey rejects an object that names one known key twice.
var ErrDuplicateKey = errors.New("repeated key")

// Unknown is the index Key returns for a key outside its list.
const Unknown = -1

// Reader steps through one JSON document; New makes one.
type Reader struct {
	data  []byte
	pos   int
	depth int   // containers open at pos
	first bool  // the container just opened has not been asked for a member yet
	err   error // the first error
	stack []byte
}

// New returns a Reader at the start of data. Decoded strings may alias
// data, so data must not change while they are in use.
func New(data []byte) Reader {
	return Reader{data: data}
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) syntaxError(what string) {
	r.Fail(fmt.Errorf("invalid JSON at offset %d: %s", r.pos, what))
}

func (r *Reader) typeError(want string) {
	r.Fail(fmt.Errorf("offset %d: want %s", r.pos, want))
}

// Mark is a position in the document that Rewind returns to.
type Mark struct{ pos, depth int }

// Mark returns the current position.
func (r *Reader) Mark() Mark { return Mark{r.pos, r.depth} }

// Rewind returns to m, so the value there can be decoded again.
func (r *Reader) Rewind(m Mark) { r.pos, r.depth = m.pos, m.depth }

// End checks that only whitespace follows the top-level value.
func (r *Reader) End() {
	if r.next(); r.err == nil && r.pos != len(r.data) {
		r.syntaxError("data after the top-level value")
	}
}

// Open enters a container opened by c ('{' or '['), reporting whether it
// did. A null leaves the field as it was, as encoding/json does; any
// other type is an error.
func (r *Reader) Open(c byte) bool {
	if r.err != nil {
		return false
	}
	switch r.next() {
	case c:
		r.pos++
		r.depth++
		r.first = true
		return true
	case 'n':
		r.literal("null")
		return false
	}
	if c == '{' {
		r.typeError("an object")
	} else {
		r.typeError("an array")
	}
	return false
}

// More reports whether another member or element of the container closed
// by close follows, consuming the comma before it or the closer.
func (r *Reader) More(close byte) bool {
	if r.err != nil {
		return false
	}
	c := r.next()
	switch {
	case r.first:
		r.first = false
		if c != close {
			return true
		}
	case c == ',':
		r.pos++
		return true
	case c != close:
		r.syntaxError("want , or " + string(close))
		return false
	}
	r.pos++
	r.depth--
	return false
}

// Key reads a member's key and colon and returns the index in keys of
// the known key it names, or Unknown. Keys match as encoding/json matches
// field names: exactly, or else under bytes.EqualFold. seen records the
// known keys the object has named (so keys holds at most 64), and a
// second one is an ErrDuplicateKey.
func (r *Reader) Key(keys []string, seen *uint64) int {
	k := r.memberKey()
	if r.err != nil {
		return Unknown
	}
	f := Unknown
	for i, name := range keys {
		if string(k) == name {
			f = i
			break
		}
	}
	if f == Unknown {
		f = slices.IndexFunc(keys, func(name string) bool { return bytes.EqualFold(k, []byte(name)) })
	}
	if f != Unknown {
		if *seen&(1<<f) != 0 {
			r.Fail(fmt.Errorf("offset %d: %w %q", r.pos, ErrDuplicateKey, keys[f]))
			return Unknown
		}
		*seen |= 1 << f
	}
	return f
}

// String decodes a string field; null leaves old unchanged.
func (r *Reader) String(old string) string {
	if b, ok := r.StringOrNull(); ok {
		return string(b)
	}
	return old
}

// StringOrNull decodes a string, reporting false for null or an error.
// The bytes alias the input unless the string needed unescaping.
func (r *Reader) StringOrNull() ([]byte, bool) {
	if r.err != nil {
		return nil, false
	}
	switch r.next() {
	case '"':
		b := r.str()
		return b, r.err == nil
	case 'n':
		r.literal("null")
		return nil, false
	}
	r.typeError("a string")
	return nil, false
}

// Int decodes an int field; null leaves old unchanged. Like encoding/json
// it takes a number that strconv.ParseInt accepts and that fits an int:
// "-0" is 0, but "1.0" and "1e0" are errors.
func (r *Reader) Int(old int) int {
	if r.err != nil {
		return old
	}
	switch c := r.next(); {
	case c == 'n':
		r.literal("null")
		return old
	case c != '-' && (c < '0' || c > '9'):
		r.typeError("a number")
		return old
	}
	tok := r.number()
	if r.err != nil {
		return old
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		r.typeError("an integer")
		return old
	}
	return int(n)
}

// stringByte marks the bytes that end str's fast scan: the closing
// quote, a backslash, control characters and non-ASCII bytes.
var stringByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// str decodes the string literal at pos. A plain ASCII string is sliced
// from the input. One with an escape or a non-ASCII byte is handed to
// json.Unmarshal on its own, which decodes escapes, surrogate pairs and
// invalid UTF-8 exactly as a whole-document Unmarshal does.
func (r *Reader) str() []byte {
	start := r.pos + 1
	plain := true
	p := start
	for ; p < len(r.data); p++ {
		c := r.data[p]
		if !stringByte[c] {
			continue
		}
		if c == '"' {
			break
		}
		if c < ' ' {
			r.pos = p
			r.syntaxError("control character in string")
			return nil
		}
		plain = false
		if c == '\\' {
			p++
		}
	}
	if p >= len(r.data) {
		r.pos = len(r.data)
		r.syntaxError("unterminated string")
		return nil
	}
	lit := r.data[start-1 : p+1]
	r.pos = p + 1
	if plain {
		return lit[1 : len(lit)-1]
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		r.Fail(err)
		return nil
	}
	return []byte(s)
}

// number passes over a JSON number and returns its text.
func (r *Reader) number() []byte {
	start, p := r.pos, r.pos
	digits := func() bool {
		q := p
		for p < len(r.data) && '0' <= r.data[p] && r.data[p] <= '9' {
			p++
		}
		return p > q
	}
	if p < len(r.data) && r.data[p] == '-' {
		p++
	}
	switch {
	case p < len(r.data) && r.data[p] == '0':
		p++
	case !digits():
		r.syntaxError("want a value")
		return nil
	}
	if p < len(r.data) && r.data[p] == '.' {
		if p++; !digits() {
			r.pos = p
			r.syntaxError("want a digit")
			return nil
		}
	}
	if p < len(r.data) && (r.data[p] == 'e' || r.data[p] == 'E') {
		if p++; p < len(r.data) && (r.data[p] == '+' || r.data[p] == '-') {
			p++
		}
		if !digits() {
			r.pos = p
			r.syntaxError("want a digit")
			return nil
		}
	}
	r.pos = p
	return r.data[start:p]
}

func (r *Reader) literal(lit string) {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.syntaxError("want " + lit)
		return
	}
	r.pos += len(lit)
}

// next skips whitespace and returns the byte at pos, or 0 at the end of
// the input.
func (r *Reader) next() byte {
	data, p := r.data, r.pos
	for ; p < len(data); p++ {
		c := data[p]
		if c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			r.pos = p
			return c
		}
		if c == '\n' {
			// Indented JSON starts its lines with spaces: pass them eight
			// at a time, leaving p on the last one passed.
			for p+9 <= len(data) && binary.LittleEndian.Uint64(data[p+1:]) == 0x2020202020202020 {
				p += 8
			}
		}
	}
	r.pos = p
	return 0
}

// Skip checks and passes over one value of any type: the value of an
// unknown key. It keeps its open containers on an explicit stack, so
// hostile nesting costs a byte a level, never a goroutine stack frame,
// and it stops at MaxDepth as encoding/json does.
func (r *Reader) Skip() {
	r.stack = r.stack[:0]
	for r.err == nil {
		// A value starts at pos.
		switch c := r.next(); c {
		case '{', '[':
			r.pos++
			if r.depth++; r.depth > MaxDepth {
				r.syntaxError("nesting exceeds the depth limit")
				return
			}
			if r.next() == c+2 { // '}' and ']' follow their openers by two
				r.pos++
				r.depth--
				break
			}
			r.stack = append(r.stack, c)
			if c == '{' {
				r.memberKey()
			}
			continue
		case '"':
			r.str()
		case 't':
			r.literal("true")
		case 'f':
			r.literal("false")
		case 'n':
			r.literal("null")
		default:
			r.number()
		}
		// A value ended: close the containers it completes, then step to
		// the next member or element.
		for r.err == nil {
			if len(r.stack) == 0 {
				return
			}
			top := r.stack[len(r.stack)-1]
			c := r.next()
			if c == ',' {
				r.pos++
				if top == '{' {
					r.memberKey()
				}
				break
			}
			if c != top+2 {
				r.syntaxError("want , or " + string(top+2))
				return
			}
			r.pos++
			r.depth--
			r.stack = r.stack[:len(r.stack)-1]
		}
	}
}

// memberKey decodes a member's key and passes over the colon after it.
func (r *Reader) memberKey() []byte {
	if r.next() != '"' {
		r.syntaxError("want an object key")
		return nil
	}
	k := r.str()
	if r.err == nil && r.next() != ':' {
		r.syntaxError("want :")
	}
	r.pos++
	return k
}
