package policy_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"policyoracle/internal/policy"
)

// roundTripSeeds are FuzzExportRoundTrip's seeds; FuzzImportMatchesReference
// starts from them too.
var roundTripSeeds = []string{
	``,
	`{}`,
	`{"library":"jdk","version":1,"entries":[]}`,
	`{"library":"jdk","version":1,"entries":[{"entry":"java.io.File.delete/0",
		  "events":[{"kind":0,"key":"unlink/1","must":["checkDelete/1"],"may":["checkDelete/1"],
		  "origins":[{"check":"checkDelete/1","methods":["java.io.File.delete/0"]}]}]}]}`,
	`{"library":"a","version":1,"entries":[{"entry":"x/0",
		  "events":[{"kind":2,"key":"p0","must":[],"may":["checkPermission/1","checkRead/2"]}]}]}`,
	`{"library":"v2","version":2,"entries":[]}`,
	`{"library":"dup","version":1,"entries":[{"entry":"e/0","events":[
		  {"kind":1,"key":"f","must":["checkRead/1"],"may":["checkRead/1"]},
		  {"kind":1,"key":"f","must":[],"may":["checkWrite/1"]}]}]}`,
	`{"library":"bad","version":1,"entries":[{"entry":"e/0",
		  "events":[{"kind":0,"key":"n/1","must":["nosuch/9"],"may":[]}]}]}`,
	`{"library":"respell","version":1,"entries":[{"entry":"e/0",
		  "events":[{"kind":0,"key":"n/1","must":["checkRead/1"],"may":["checkRead/1","checkRead/x"]}]}]}`,
	`[1,2,3]`,
	`{"library":"x","version":1,"entries":[{"entry":"e/0","events":[{"kind":-7,"key":""}]}]}`,
}

// FuzzExportRoundTrip asserts the wire format's safety and idempotence on
// arbitrary bytes: ImportJSON never panics, anything it accepts can be
// exported, and export ∘ import is a fixed point — re-importing an
// exported document and exporting again reproduces it byte-identically.
// This is invariant (d) of the metamorphic checker, driven from raw JSON
// instead of extracted policies.
func FuzzExportRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pp, err := policy.ImportJSON(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		b1, err := pp.ExportJSON()
		if err != nil {
			t.Fatalf("accepted import cannot export: %v", err)
		}
		pp2, err := policy.ImportJSON(b1)
		if err != nil {
			t.Fatalf("exported document rejected on re-import: %v\n%s", err, b1)
		}
		b2, err := pp2.ExportJSON()
		if err != nil {
			t.Fatalf("re-export failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("export is not a fixed point of import\n--- first ---\n%s\n--- second ---\n%s", b1, b2)
		}
	})
}

// referenceSeeds reach the corners of encoding/json's decisions that
// ImportJSON's own decoder must reproduce.
var referenceSeeds = []string{
	`null`,
	`[]`,
	` {"library":"x","version":1,"entries":[]} `,
	// Keys match exactly or else under bytes.EqualFold: "ſ" folds to
	// "s", the Kelvin sign to "k", and "İ" to neither ASCII letter.
	`{"LIBRARY":"x","Version":1,"ENTRIES":[{"Entry":"e","EVENTS":[{"KIND":1,"Key":"k","MUST":["checkRead/1"],"mAy":[]}]}]}`,
	`{"library":"x","verſion":1,"entries":[{"entry":"e","events":[{"Kind":2,"key":"k"}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"\u212aind":2}]}]}`,
	`{"lİbrary":"x","version":1,"entries":[]}`,
	`{"\u006cibrary":"x","vers\u0069on":1,"entries":[]}`,
	// Unknown keys hold nested values, which are skipped but checked.
	`{"x":{"a":[1,-2.5e+3,{"b":null,"c":[true,false]}],"d":"\u00e9"},"library":"x","version":1,
	  "entries":[{"y":[[],{}],"entry":"e","events":[{"z":{"q":[[[]]]},"kind":1,"must":[],"may":[]}]}]}`,
	`{"x":[1,2,],"library":"x","version":1,"entries":[]}`,
	`{"x":{"a" 1},"library":"x","version":1,"entries":[]}`,
	`{"x":[01],"library":"x","version":1,"entries":[]}`,
	// null in every position.
	`{"library":null,"version":1,"entries":[]}`,
	`{"library":"x","domain":null,"version":null,"entries":null}`,
	`{"library":"x","domain":null,"version":1,"entries":null}`,
	`{"library":"x","version":1,"entries":[null]}`,
	`{"library":"x","version":1,"entries":[{"entry":null,"events":null}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[null]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":null,"key":null,"must":null,"may":null,"origins":null}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"must":[null],"may":[]}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"origins":[null]}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"origins":[{"check":null,"methods":["m"]}]}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"origins":[{"check":"checkRead/1","methods":[null,"m"]}]}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"origins":[{"check":"checkRead/1","methods":null}]}]}]}`,
	// Wrong JSON types for known keys.
	`{"library":1,"version":1,"entries":[]}`,
	`{"library":"x","version":"1","entries":[]}`,
	`{"library":"x","version":1,"entries":{}}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":true}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"must":"checkRead/1"}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"must":[["checkRead/1"]]}]}]}`,
	`{"library":"x","version":1,"entries":[["e"]]}`,
	// Escapes, surrogate pairs, lone surrogates and invalid UTF-8.
	`{"library":"a\"b\\c\/d\b\f\n\r\t\u0041","version":1,"entries":[{"entry":"\ud83d\ude00","events":[
	  {"kind":1,"key":"\ud800x","must":[],"may":[],"origins":[{"check":"checkRead/1","methods":["\udc00","\ud800\u0041","\u00e9"]}]}]}]}`,
	"{\"library\":\"\xff\xfe\",\"version\":1,\"entries\":[{\"entry\":\"\xe8\xe8\",\"events\":[{\"kind\":1,\"key\":\"\xc3\"}]}]}",
	"{\"library\":\"x\",\"version\":1,\"entries\":[{\"entry\":\"a\x01b\"}]}",
	`{"library":"\x","version":1,"entries":[]}`,
	`{"library":"\u12","version":1,"entries":[]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"must":["check\u0052ead/1"],"may":[]}]}]}`,
	// kind and version go through strconv.ParseInt.
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1.0}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1e0}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":-0}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":9223372036854775807}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":9223372036854775808}]}]}`,
	`{"library":"x","version":1.0,"entries":[]}`,
	`{"library":"x","version":-0,"entries":[]}`,
	// Trailing garbage.
	`{"library":"x","version":1,"entries":[]} x`,
	`{"library":"x","version":1,"entries":[]}}`,
	`{"library":"x","version":1,"entries":[]}{}`,
	// Non-canonical check tokens.
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"must":["checkRead/01"],"may":[]}]}]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"must":["checkRead/1 "],"may":[]}]}]}`,
	// A crypto-domain blob whose domain follows its entries, and one
	// whose tokens are not in the domain it names.
	`{"entries":[{"events":[{"origins":[{"methods":["C.m()"],"check":"checkIvFresh/1"}],"may":["checkIvFresh/1","checkSeeded/0"],
	  "must":["checkIvFresh/1"],"key":"init/2","kind":0}],"entry":"C.m()"}],"version":1,"domain":"cryptoapi","library":"c"}`,
	`{"entries":[{"events":[{"must":["checkRead/1"],"kind":0}],"entry":"C.m()"}],"version":1,"domain":"cryptoapi","library":"c"}`,
	`{"entries":[{"events":[{"must":["checkIvFresh/1"],"kind":0}],"entry":"C.m()"}],"version":1,"domain":"securitymanager","library":"c"}`,
	`{"entries":[{"events":[{"must":["checkIvFresh/1"],"kind":0}],"entry":"C.m()"}],"version":1,"domain":"nosuch","library":"c"}`,
	// Repeated keys: encoding/json keeps the last or merges, ImportJSON
	// rejects.
	`{"library":"x","library":"y","version":1,"entries":[]}`,
	`{"library":"x","LIBRARY":"y","version":1,"entries":[]}`,
	`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"kind":2}]}],"entries":[{"entry":"f"}]}`,
}

// checkedInCorpus reads the inputs of a fuzz target's checked-in corpus.
func checkedInCorpus(tb testing.TB, target string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		lit, ok := strings.CutPrefix(value, "[]byte(")
		if header != "go test fuzz v1" || !ok {
			tb.Fatalf("%s: not a one-value []byte corpus file", file)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzImportMatchesReference checks ImportJSON against the encoding/json
// importer it replaced: on any input both accept or both reject, and what
// both accept exports to identical bytes. The one allowed difference is
// the deliberate narrowing: ImportJSON may reject a document that repeats
// a known key, and says so with ErrDuplicateKey.
func FuzzImportMatchesReference(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add([]byte(s))
	}
	for _, b := range checkedInCorpus(f, "FuzzExportRoundTrip") {
		f.Add(b)
	}
	for _, s := range referenceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := policy.ImportJSON(data)
		want, refErr := policy.RefImportJSON(data)
		if errors.Is(err, policy.ErrDuplicateKey) {
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ImportJSON error %v, reference error %v, on %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		gotBytes, err := got.ExportJSON()
		if err != nil {
			t.Fatalf("accepted import cannot export: %v", err)
		}
		wantBytes, err := want.ExportJSON()
		if err != nil {
			t.Fatalf("reference import cannot export: %v", err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("imports of %q differ\n--- ImportJSON ---\n%s\n--- reference ---\n%s", data, gotBytes, wantBytes)
		}
	})
}
