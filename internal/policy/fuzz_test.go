package policy_test

import (
	"bytes"
	"testing"

	"policyoracle/internal/policy"
)

// FuzzExportRoundTrip asserts the wire format's safety and idempotence on
// arbitrary bytes: ImportJSON never panics, anything it accepts can be
// exported, and export ∘ import is a fixed point — re-importing an
// exported document and exporting again reproduces it byte-identically.
// This is invariant (d) of the metamorphic checker, driven from raw JSON
// instead of extracted policies.
func FuzzExportRoundTrip(f *testing.F) {
	seeds := []string{
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
	for _, s := range seeds {
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
