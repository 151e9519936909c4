package policy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"policyoracle/internal/secmodel"
)

// The paper's Discussion section proposes that vendors of proprietary
// implementations share *extracted policies* rather than code, and
// difference against them. This file provides the stable serialization
// for that exchange: ExportJSON writes a ProgramPolicies snapshot;
// ImportJSON reads one back into a ProgramPolicies usable by diff.Compare.

// jsonPolicies is the wire form of ProgramPolicies. Domain is omitted
// for the default (SecurityManager) domain, so default-domain exports
// are byte-identical to the pre-domain wire format and old blobs import
// cleanly.
type jsonPolicies struct {
	Library string      `json:"library"`
	Domain  string      `json:"domain,omitempty"`
	Version int         `json:"version"`
	Entries []jsonEntry `json:"entries"`
}

type jsonEntry struct {
	Entry  string      `json:"entry"`
	Events []jsonEvent `json:"events"`
}

type jsonEvent struct {
	Kind    int          `json:"kind"`
	Key     string       `json:"key,omitempty"`
	Must    []string     `json:"must"`
	May     []string     `json:"may"`
	Origins []jsonOrigin `json:"origins,omitempty"`
}

type jsonOrigin struct {
	Check   string   `json:"check"`
	Methods []string `json:"methods"`
}

const wireVersion = 1

// checkToWire renders a check as name/arity, the stable wire identity
// within domain d. The arity comes straight from the domain's check
// table, and an ID outside the table is a loud error rather than a
// "check/-1" token that checkFromWire would reject only on re-import.
func checkToWire(d *secmodel.Domain, id secmodel.CheckID) (string, error) {
	arity := d.CheckArity(id)
	if arity < 0 {
		return "", fmt.Errorf("policy export: check ID %d is not in domain %s", int(id), d.ID())
	}
	return d.CheckName(id) + "/" + strconv.Itoa(arity), nil
}

// wireTokens caches one token table per domain: the name/arity token
// checkToWire writes for each check, mapped to the check. Domains are
// immutable, so a table built once never goes stale.
var wireTokens sync.Map // *secmodel.Domain → map[string]secmodel.CheckID

func tokenTable(d *secmodel.Domain) map[string]secmodel.CheckID {
	if t, ok := wireTokens.Load(d); ok {
		return t.(map[string]secmodel.CheckID)
	}
	t := make(map[string]secmodel.CheckID, d.NumChecks())
	for id := secmodel.CheckID(0); int(id) < d.NumChecks(); id++ {
		w, _ := checkToWire(d, id) // cannot fail for an ID inside the table
		t[w] = id
	}
	actual, _ := wireTokens.LoadOrStore(d, t)
	return actual.(map[string]secmodel.CheckID)
}

// checkFromWire resolves a check token of domain d. Only the exact
// spelling checkToWire writes resolves, so an imported blob re-exports
// the tokens it was read from: "checkRead/01" and "checkRead/1 " are
// unknown, not checkRead/1.
func checkFromWire(d *secmodel.Domain, s string) (secmodel.CheckID, error) {
	if id, ok := tokenTable(d)[s]; ok {
		return id, nil
	}
	return 0, fmt.Errorf("unknown check %q in domain %s", s, d.ID())
}

func setToWire(d *secmodel.Domain, s CheckSet) ([]string, error) {
	out := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		w, err := checkToWire(d, id)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// ExportJSON serializes the policies for sharing. The checks are
// rendered against the policies' domain; the domain ID travels on the
// wire (omitted for the default domain, keeping those bytes unchanged).
func (pp *ProgramPolicies) ExportJSON() ([]byte, error) {
	dom, err := pp.DomainModel()
	if err != nil {
		return nil, fmt.Errorf("policy export: %w", err)
	}
	domID := pp.Domain
	if domID == secmodel.DefaultDomainID {
		domID = "" // canonical spelling of the default domain on the wire
	}
	out := jsonPolicies{Library: pp.Library, Domain: domID, Version: wireVersion}
	for _, sig := range pp.SortedEntries() {
		ep := pp.Entries[sig]
		je := jsonEntry{Entry: sig}
		for _, ev := range ep.SortedEvents() {
			evp := ep.Events[ev]
			must, err := setToWire(dom, evp.Must)
			if err != nil {
				return nil, err
			}
			may, err := setToWire(dom, evp.May)
			if err != nil {
				return nil, err
			}
			jev := jsonEvent{
				Kind: int(ev.Kind),
				Key:  ev.Key,
				Must: must,
				May:  may,
			}
			// Check ids are dense and small (< the domain's table size), so
			// ascending order falls out of a linear scan — no sort needed.
			for id := secmodel.CheckID(0); int(id) < dom.NumChecks(); id++ {
				if _, ok := evp.Origins[id]; !ok {
					continue
				}
				check, err := checkToWire(dom, id)
				if err != nil {
					return nil, err
				}
				jev.Origins = append(jev.Origins, jsonOrigin{
					Check:   check,
					Methods: evp.OriginsOf(id),
				})
			}
			je.Events = append(je.Events, jev)
		}
		out.Entries = append(out.Entries, je)
	}
	return json.MarshalIndent(out, "", "  ")
}

// ImportJSON reconstructs shared policies. The result is directly usable
// by diff.Compare against locally extracted policies.
//
// It decodes the bytes in one pass, building the policies as it reads,
// and accepts exactly the documents encoding/json would decode into
// jsonPolicies, with the same result, except one: an object that names
// a known key twice is rejected (errDuplicateKey).
func ImportJSON(data []byte) (*ProgramPolicies, error) {
	// An exported blob holds about one distinct string per 512 bytes.
	d := decoder{data: data, strs: make(map[string]string, min(len(data)/512, 4096))}
	pp, err := d.document()
	if err != nil {
		return nil, fmt.Errorf("policy import: %w", err)
	}
	return pp, nil
}

// maxDepth is encoding/json's nesting limit; deeper input is a syntax
// error there, so it is one here.
const maxDepth = 10000

// errDuplicateKey rejects an object that names one known key twice.
// encoding/json would keep the last scalar and decode a repeated array
// element by element into the first one's elements. No writer produces
// such a blob, and accepting one means guessing what it says.
var errDuplicateKey = errors.New("repeated key")

// The known keys of each wire object, in jsonPolicies field order, and
// their indexes. Any other key is skipped.
var (
	docKeys    = []string{"library", "domain", "version", "entries"}
	entryKeys  = []string{"entry", "events"}
	eventKeys  = []string{"kind", "key", "must", "may", "origins"}
	originKeys = []string{"check", "methods"}
)

const (
	keyLibrary, keyDomain, keyVersion, keyEntries = 0, 1, 2, 3
	keyEntry, keyEvents                           = 0, 1
	keyKind, keyKey, keyMust, keyMay, keyOrigins  = 0, 1, 2, 3, 4
	keyCheck, keyMethods                          = 0, 1
	keyUnknown                                    = -1
)

// decoder is ImportJSON's single-pass reader. It accepts only a document
// that is valid JSON throughout, inside skipped values too, and decides
// every value the way encoding/json decides it for the wire structs:
//
//   - a key matches exactly after unescaping, or else under
//     bytes.EqualFold;
//   - null leaves a string or int unchanged and an array empty, and a
//     null array element is the element's zero value;
//   - a value of the wrong JSON type for a known key is an error, and
//     kind and version must parse with strconv.ParseInt;
//   - strings decode escapes, surrogate pairs and invalid UTF-8 exactly
//     as encoding/json does, by handing it any string that needs it.
//
// Errors are sticky: after the first, every step is a no-op. The only
// recursion follows the fixed wire schema, eight containers deep;
// skipped values are walked with an explicit stack.
type decoder struct {
	data  []byte
	pos   int
	depth int   // containers open at pos
	first bool  // the container just opened has not been asked for a member yet
	err   error // the first error

	// Check tokens resolve against dom. When the entries come before any
	// domain key, dom is provisionally the default domain: a token it
	// lacks sets unresolved instead of failing, and document decodes the
	// entries again once the domain is known.
	dom         *secmodel.Domain
	tokens      map[string]secmodel.CheckID
	provisional bool
	unresolved  bool

	strs    map[string]string // interned entry signatures, event keys and methods
	list    []*EntryPolicy    // decoded entries, in document order
	origins []originMethod    // the current event's origins
	stack   []byte            // skip's open containers
}

// originMethod is one method of a decoded origin.
type originMethod struct {
	check  secmodel.CheckID
	method string
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) syntaxError(what string) {
	d.fail(fmt.Errorf("invalid JSON at offset %d: %s", d.pos, what))
}

func (d *decoder) typeError(want string) {
	d.fail(fmt.Errorf("offset %d: want %s", d.pos, want))
}

// document decodes the top-level object.
func (d *decoder) document() (*ProgramPolicies, error) {
	var (
		lib, domID string
		version    int
		seen       uint8
		entriesAt  = -1
	)
	if !d.open('{') {
		if d.err == nil {
			// encoding/json leaves the wire struct zero for a top-level null.
			d.err = errors.New("unsupported version 0")
		}
		return nil, d.err
	}
	for d.more('}') {
		switch d.key(docKeys, &seen) {
		case keyLibrary:
			lib = d.stringValue(lib)
		case keyDomain:
			domID = d.stringValue(domID)
		case keyVersion:
			version = d.intValue(version)
		case keyEntries:
			entriesAt = d.pos
			d.dom, d.provisional = secmodel.SecurityManager(), seen&(1<<keyDomain) == 0
			if !d.provisional {
				dom, err := secmodel.ResolveDomain(domID)
				if err != nil {
					d.fail(err)
					break
				}
				d.dom = dom
			}
			d.tokens = tokenTable(d.dom)
			d.entries()
		default:
			d.skip()
		}
	}
	if d.next(); d.err == nil && d.pos != len(d.data) {
		d.syntaxError("data after the top-level object")
	}
	if d.err != nil {
		return nil, d.err
	}
	if version != wireVersion {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	if lib == "" {
		return nil, errors.New("missing library name")
	}
	dom, err := secmodel.ResolveDomain(domID)
	if err != nil {
		return nil, err
	}
	if entriesAt >= 0 && (dom != d.dom || d.unresolved) {
		// The entries were read under the provisional default domain, and
		// a later domain key names another or a token did not resolve:
		// decode them again under the final domain, where an unknown
		// token is an error.
		d.pos, d.depth = entriesAt, 1
		d.dom, d.tokens, d.provisional = dom, tokenTable(dom), false
		d.list = d.list[:0]
		if d.entries(); d.err != nil {
			return nil, d.err
		}
	}
	pp := &ProgramPolicies{Library: lib, Entries: make(map[string]*EntryPolicy, len(d.list))}
	if dom != secmodel.SecurityManager() {
		pp.Domain = dom.ID()
	}
	for _, ep := range d.list {
		pp.Entries[ep.Entry] = ep // a repeated signature keeps the last entry
	}
	return pp, nil
}

func (d *decoder) entries() {
	if d.open('[') {
		for d.more(']') {
			d.list = append(d.list, d.entry())
		}
	}
}

// entry decodes one entry; a null element is the entry named "".
func (d *decoder) entry() *EntryPolicy {
	ep := &EntryPolicy{Events: make(map[secmodel.Event]*EventPolicy)}
	if !d.open('{') {
		return ep
	}
	var seen uint8
	for d.more('}') {
		switch d.key(entryKeys, &seen) {
		case keyEntry:
			ep.Entry = d.internValue(ep.Entry)
		case keyEvents:
			if d.open('[') {
				for d.more(']') {
					d.event(ep)
				}
			}
		default:
			d.skip()
		}
	}
	return ep
}

// event decodes one event into ep. As in the wire structs' import, a
// repeated event takes the last must and may sets and the union of the
// origins; a null element is the kind-0 event with key "".
func (d *decoder) event(ep *EntryPolicy) {
	var (
		ev        secmodel.Event
		must, may CheckSet
		seen      uint8
	)
	d.origins = d.origins[:0]
	if d.open('{') {
		for d.more('}') {
			switch d.key(eventKeys, &seen) {
			case keyKind:
				ev.Kind = secmodel.EventKind(d.intValue(int(ev.Kind)))
			case keyKey:
				ev.Key = d.internValue(ev.Key)
			case keyMust:
				must = d.checkSet()
			case keyMay:
				may = d.checkSet()
			case keyOrigins:
				if d.open('[') {
					for d.more(']') {
						d.origin()
					}
				}
			default:
				d.skip()
			}
		}
	}
	if d.err != nil {
		return
	}
	evp := ep.EventPolicyFor(ev)
	evp.Must, evp.May = must, may
	for _, o := range d.origins {
		evp.AddOrigin(o.check, o.method)
	}
}

// origin decodes one origin into d.origins; a null element has the
// check "", which never resolves. The check may follow the methods, so
// it is filled in once the object ends.
func (d *decoder) origin() {
	var (
		check []byte
		seen  uint8
	)
	lo := len(d.origins)
	if d.open('{') {
		for d.more('}') {
			switch d.key(originKeys, &seen) {
			case keyCheck:
				check = d.tokenValue()
			case keyMethods:
				if d.open('[') {
					for d.more(']') {
						d.origins = append(d.origins, originMethod{method: d.internValue("")})
					}
				}
			default:
				d.skip()
			}
		}
	}
	id := d.check(check)
	for i := lo; i < len(d.origins); i++ {
		d.origins[i].check = id
	}
}

func (d *decoder) checkSet() CheckSet {
	var s CheckSet
	if d.open('[') {
		for d.more(']') {
			s = s.With(d.check(d.tokenValue()))
		}
	}
	return s
}

// check resolves a check token under d.dom, looking it up in
// checkFromWire's table without copying it.
func (d *decoder) check(tok []byte) secmodel.CheckID {
	if id, ok := d.tokens[string(tok)]; ok {
		return id
	}
	if d.provisional {
		d.unresolved = true
		return 0
	}
	id, err := checkFromWire(d.dom, string(tok)) // fails: the token is not in the table
	d.fail(err)
	return id
}

// open enters a container opened by c, reporting whether it did. A null
// leaves the field as it was, as encoding/json does; any other type is
// an error.
func (d *decoder) open(c byte) bool {
	if d.err != nil {
		return false
	}
	switch d.next() {
	case c:
		d.pos++
		d.depth++
		d.first = true
		return true
	case 'n':
		d.literal("null")
		return false
	}
	if c == '{' {
		d.typeError("an object")
	} else {
		d.typeError("an array")
	}
	return false
}

// more reports whether another member or element of the container closed
// by close follows, consuming the comma before it or the closer.
func (d *decoder) more(close byte) bool {
	if d.err != nil {
		return false
	}
	c := d.next()
	switch {
	case d.first:
		d.first = false
		if c != close {
			return true
		}
	case c == ',':
		d.pos++
		return true
	case c != close:
		d.syntaxError("want , or " + string(close))
		return false
	}
	d.pos++
	d.depth--
	return false
}

// key reads a member's key and colon and returns the index of the known
// key it names, or keyUnknown. Keys match as encoding/json matches field
// names: exactly, or else under bytes.EqualFold.
func (d *decoder) key(keys []string, seen *uint8) int {
	k := d.memberKey()
	if d.err != nil {
		return keyUnknown
	}
	f := keyUnknown
	for i, name := range keys {
		if string(k) == name {
			f = i
			break
		}
	}
	if f == keyUnknown {
		f = slices.IndexFunc(keys, func(name string) bool { return bytes.EqualFold(k, []byte(name)) })
	}
	if f != keyUnknown {
		if *seen&(1<<f) != 0 {
			d.fail(fmt.Errorf("offset %d: %w %q", d.pos, errDuplicateKey, keys[f]))
			return keyUnknown
		}
		*seen |= 1 << f
	}
	return f
}

// stringValue decodes a string field; null leaves old unchanged.
func (d *decoder) stringValue(old string) string {
	if b, ok := d.stringOrNull(); ok {
		return string(b)
	}
	return old
}

// internValue is stringValue for strings a blob repeats.
func (d *decoder) internValue(old string) string {
	b, ok := d.stringOrNull()
	if !ok {
		return old
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// tokenValue decodes a check token; null is the empty token.
func (d *decoder) tokenValue() []byte {
	b, _ := d.stringOrNull()
	return b
}

// stringOrNull decodes a string, reporting false for null or an error.
func (d *decoder) stringOrNull() ([]byte, bool) {
	if d.err != nil {
		return nil, false
	}
	switch d.next() {
	case '"':
		b := d.str()
		return b, d.err == nil
	case 'n':
		d.literal("null")
		return nil, false
	}
	d.typeError("a string")
	return nil, false
}

// intValue decodes an int field; null leaves old unchanged. Like
// encoding/json it takes a number that strconv.ParseInt accepts and that
// fits an int: "-0" is 0, but "1.0" and "1e0" are errors.
func (d *decoder) intValue(old int) int {
	if d.err != nil {
		return old
	}
	c := d.next()
	if c == 'n' {
		d.literal("null")
		return old
	}
	if c != '-' && (c < '0' || c > '9') {
		d.typeError("a number")
		return old
	}
	tok := d.number()
	if d.err != nil {
		return old
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		d.typeError("an integer")
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
func (d *decoder) str() []byte {
	start := d.pos + 1
	plain := true
	p := start
	for ; p < len(d.data); p++ {
		c := d.data[p]
		if !stringByte[c] {
			continue
		}
		if c == '"' {
			break
		}
		if c < ' ' {
			d.pos = p
			d.syntaxError("control character in string")
			return nil
		}
		plain = false
		if c == '\\' {
			p++
		}
	}
	if p >= len(d.data) {
		d.pos = len(d.data)
		d.syntaxError("unterminated string")
		return nil
	}
	lit := d.data[start-1 : p+1]
	d.pos = p + 1
	if plain {
		return lit[1 : len(lit)-1]
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		d.fail(err)
		return nil
	}
	return []byte(s)
}

// number passes over a JSON number and returns its text.
func (d *decoder) number() []byte {
	start, p := d.pos, d.pos
	digits := func() bool {
		q := p
		for p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9' {
			p++
		}
		return p > q
	}
	if p < len(d.data) && d.data[p] == '-' {
		p++
	}
	switch {
	case p < len(d.data) && d.data[p] == '0':
		p++
	case !digits():
		d.syntaxError("want a value")
		return nil
	}
	if p < len(d.data) && d.data[p] == '.' {
		if p++; !digits() {
			d.pos = p
			d.syntaxError("want a digit")
			return nil
		}
	}
	if p < len(d.data) && (d.data[p] == 'e' || d.data[p] == 'E') {
		if p++; p < len(d.data) && (d.data[p] == '+' || d.data[p] == '-') {
			p++
		}
		if !digits() {
			d.pos = p
			d.syntaxError("want a digit")
			return nil
		}
	}
	d.pos = p
	return d.data[start:p]
}

func (d *decoder) literal(lit string) {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		d.syntaxError("want " + lit)
		return
	}
	d.pos += len(lit)
}

// next skips whitespace and returns the byte at pos, or 0 at the end of
// the input.
func (d *decoder) next() byte {
	data, p := d.data, d.pos
	for ; p < len(data); p++ {
		c := data[p]
		if c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			d.pos = p
			return c
		}
		if c == '\n' {
			// An exported blob indents its lines with spaces: pass them
			// eight at a time, leaving p on the last one passed.
			for p+9 <= len(data) && binary.LittleEndian.Uint64(data[p+1:]) == 0x2020202020202020 {
				p += 8
			}
		}
	}
	d.pos = p
	return 0
}

// skip checks and passes over one value of any type: the value of an
// unknown key. It keeps its open containers on an explicit stack, so
// hostile nesting costs a byte a level, never a goroutine stack frame,
// and it stops at maxDepth as encoding/json does.
func (d *decoder) skip() {
	d.stack = d.stack[:0]
	for d.err == nil {
		// A value starts at pos.
		switch c := d.next(); c {
		case '{', '[':
			d.pos++
			if d.depth++; d.depth > maxDepth {
				d.syntaxError("nesting exceeds the depth limit")
				return
			}
			if d.next() == c+2 { // '}' and ']' follow their openers by two
				d.pos++
				d.depth--
				break
			}
			d.stack = append(d.stack, c)
			if c == '{' {
				d.memberKey()
			}
			continue
		case '"':
			d.str()
		case 't':
			d.literal("true")
		case 'f':
			d.literal("false")
		case 'n':
			d.literal("null")
		default:
			d.number()
		}
		// A value ended: close the containers it completes, then step to
		// the next member or element.
		for d.err == nil {
			if len(d.stack) == 0 {
				return
			}
			top := d.stack[len(d.stack)-1]
			c := d.next()
			if c == ',' {
				d.pos++
				if top == '{' {
					d.memberKey()
				}
				break
			}
			if c != top+2 {
				d.syntaxError("want , or " + string(top+2))
				return
			}
			d.pos++
			d.depth--
			d.stack = d.stack[:len(d.stack)-1]
		}
	}
}

// memberKey decodes a member's key and passes over the colon after it.
func (d *decoder) memberKey() []byte {
	if d.next() != '"' {
		d.syntaxError("want an object key")
		return nil
	}
	k := d.str()
	if d.err == nil && d.next() != ':' {
		d.syntaxError("want :")
	}
	d.pos++
	return k
}
