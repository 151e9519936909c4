package policy

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"policyoracle/internal/jsonread"
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
// It decodes the bytes in one pass on a jsonread.Reader, building the
// policies as it reads, and accepts exactly the documents encoding/json
// would decode into jsonPolicies, with the same result, except one: an
// object that names a known key twice is rejected
// (jsonread.ErrDuplicateKey).
func ImportJSON(data []byte) (*ProgramPolicies, error) {
	// An exported blob holds about one distinct string per 512 bytes.
	d := decoder{Reader: jsonread.New(data), strs: make(map[string]string, min(len(data)/512, 4096))}
	pp, err := d.document()
	if err != nil {
		return nil, fmt.Errorf("policy import: %w", err)
	}
	return pp, nil
}

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
)

// decoder is ImportJSON's schema: it walks the wire objects on its
// Reader, which decides every value as encoding/json would. A null array
// element is the element's zero value. The only recursion follows the
// fixed wire schema, eight containers deep.
type decoder struct {
	jsonread.Reader

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
}

// originMethod is one method of a decoded origin.
type originMethod struct {
	check  secmodel.CheckID
	method string
}

// document decodes the top-level object.
func (d *decoder) document() (*ProgramPolicies, error) {
	var (
		lib, domID  string
		version     int
		seen        uint64
		entriesAt   jsonread.Mark
		haveEntries bool
	)
	if !d.Open('{') {
		if d.Err() == nil {
			// encoding/json leaves the wire struct zero for a top-level null.
			return nil, errors.New("unsupported version 0")
		}
		return nil, d.Err()
	}
	for d.More('}') {
		switch d.Key(docKeys, &seen) {
		case keyLibrary:
			lib = d.String(lib)
		case keyDomain:
			domID = d.String(domID)
		case keyVersion:
			version = d.Int(version)
		case keyEntries:
			entriesAt, haveEntries = d.Mark(), true
			d.dom, d.provisional = secmodel.SecurityManager(), seen&(1<<keyDomain) == 0
			if !d.provisional {
				dom, err := secmodel.ResolveDomain(domID)
				if err != nil {
					d.Fail(err)
					break
				}
				d.dom = dom
			}
			d.tokens = tokenTable(d.dom)
			d.entries()
		default:
			d.Skip()
		}
	}
	if d.End(); d.Err() != nil {
		return nil, d.Err()
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
	if haveEntries && (dom != d.dom || d.unresolved) {
		// The entries were read under the provisional default domain, and
		// a later domain key names another or a token did not resolve:
		// decode them again under the final domain, where an unknown
		// token is an error.
		d.Rewind(entriesAt)
		d.dom, d.tokens, d.provisional = dom, tokenTable(dom), false
		d.list = d.list[:0]
		if d.entries(); d.Err() != nil {
			return nil, d.Err()
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
	if d.Open('[') {
		for d.More(']') {
			d.list = append(d.list, d.entry())
		}
	}
}

// entry decodes one entry; a null element is the entry named "".
func (d *decoder) entry() *EntryPolicy {
	ep := &EntryPolicy{Events: make(map[secmodel.Event]*EventPolicy)}
	if !d.Open('{') {
		return ep
	}
	var seen uint64
	for d.More('}') {
		switch d.Key(entryKeys, &seen) {
		case keyEntry:
			ep.Entry = d.internValue(ep.Entry)
		case keyEvents:
			if d.Open('[') {
				for d.More(']') {
					d.event(ep)
				}
			}
		default:
			d.Skip()
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
		seen      uint64
	)
	d.origins = d.origins[:0]
	if d.Open('{') {
		for d.More('}') {
			switch d.Key(eventKeys, &seen) {
			case keyKind:
				ev.Kind = secmodel.EventKind(d.Int(int(ev.Kind)))
			case keyKey:
				ev.Key = d.internValue(ev.Key)
			case keyMust:
				must = d.checkSet()
			case keyMay:
				may = d.checkSet()
			case keyOrigins:
				if d.Open('[') {
					for d.More(']') {
						d.origin()
					}
				}
			default:
				d.Skip()
			}
		}
	}
	if d.Err() != nil {
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
		seen  uint64
	)
	lo := len(d.origins)
	if d.Open('{') {
		for d.More('}') {
			switch d.Key(originKeys, &seen) {
			case keyCheck:
				check, _ = d.StringOrNull()
			case keyMethods:
				if d.Open('[') {
					for d.More(']') {
						d.origins = append(d.origins, originMethod{method: d.internValue("")})
					}
				}
			default:
				d.Skip()
			}
		}
	}
	id := d.check(check)
	for i := lo; i < len(d.origins); i++ {
		d.origins[i].check = id
	}
}

// checkSet decodes a set of check tokens; a null token is the empty
// token, which never resolves.
func (d *decoder) checkSet() CheckSet {
	var s CheckSet
	if d.Open('[') {
		for d.More(']') {
			tok, _ := d.StringOrNull()
			s = s.With(d.check(tok))
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
	d.Fail(err)
	return id
}

// internValue decodes a string field like Reader.String, interning
// strings a blob repeats.
func (d *decoder) internValue(old string) string {
	b, ok := d.StringOrNull()
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
