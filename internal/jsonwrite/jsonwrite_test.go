package jsonwrite

import (
	"bytes"
	"encoding/json"
	"testing"
)

// doc covers every shape the writer renders: scalars, a string slice,
// both map kinds and an embedded raw document.
type doc struct {
	S  string              `json:"s"`
	N  int                 `json:"n"`
	B  bool                `json:"b"`
	L  []string            `json:"l"`
	M  map[string]string   `json:"m"`
	LM map[string][]string `json:"lm"`
	R  json.RawMessage     `json:"r,omitempty"`
}

func (d *doc) write(w *Indent) error {
	w.BeginObject()
	w.Key("s")
	w.String(d.S)
	w.Key("n")
	w.Int(int64(d.N))
	w.Key("b")
	w.Bool(d.B)
	w.Key("l")
	w.Strings(d.L)
	w.Key("m")
	w.StringMap(d.M)
	w.Key("lm")
	w.StringsMap(d.LM)
	if len(d.R) > 0 {
		w.Key("r")
		if err := w.Raw(d.R); err != nil {
			return err
		}
	}
	w.EndObject()
	return nil
}

// matchesReference fails t unless the writer renders d exactly as
// json.MarshalIndent(d, "", "  ") does.
func matchesReference(t *testing.T, d *doc) {
	t.Helper()
	want, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var w Indent
	if err := d.write(&w); err != nil {
		t.Fatal(err)
	}
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("writer output differs from json.MarshalIndent:\n%s\nvs\n%s", got, want)
	}
}

// Strings that exercise every escape: the HTML-unsafe bytes in MJ
// signatures and sources, control bytes, the JavaScript line separators,
// invalid and truncated UTF-8, and valid multibyte runes.
var hardStrings = []string{
	"", "<init>", "a && b > c", `quote " and \ backslash`,
	"\x00\x01\b\t\n\f\r\x1f\x7f", "\xe2\x80\xa8 and \xe2\x80\xa9",
	"\xff\xfe", "bad tail \xe2\x80", "caf\xc3\xa9 \xf0\x9f\x94\x92",
}

func TestIndentMatchesMarshalIndent(t *testing.T) {
	matchesReference(t, &doc{}) // nil maps and slice
	matchesReference(t, &doc{L: []string{}, M: map[string]string{}, LM: map[string][]string{}})
	for _, s := range hardStrings {
		matchesReference(t, &doc{
			S: s, N: -len(s), B: len(s)%2 == 0,
			L:  []string{s, "x"},
			M:  map[string]string{s: s, "z" + s: "", "<": s},
			LM: map[string][]string{s: {s}, "nil": nil, "empty": {}},
		})
	}
	for _, raw := range []string{
		`{}`, `[]`, `"<init>"`, `  {"a": [1, {"b": []}, {}], "c&d": "x<y"}  `,
		`{"library":"jdk","entries":[{"entry":"a.B.<init>()","events":null}]}`,
		"[\"\xe2\x80\xa8\", 1.5e3, true, null]",
	} {
		matchesReference(t, &doc{R: json.RawMessage(raw)})
	}
	// A top-level value, and a raw document that is not JSON.
	var w Indent
	w.String("<top>")
	if want, _ := json.MarshalIndent("<top>", "", "  "); !bytes.Equal(w.Bytes(), want) {
		t.Errorf("top-level string = %s, want %s", w.Bytes(), want)
	}
	var bad Indent
	if bad.Raw([]byte(`{"a":`)) == nil {
		t.Error("Raw accepted invalid JSON")
	}
}

// FuzzIndentMatchesMarshalIndent compares the writer with the reference
// over arbitrary strings as values and keys and an arbitrary raw
// document.
func FuzzIndentMatchesMarshalIndent(f *testing.F) {
	for _, s := range hardStrings {
		f.Add(s, "b", "c", []byte(`{"k": ["<v>"]}`))
	}
	f.Fuzz(func(t *testing.T, a, b, c string, raw []byte) {
		d := &doc{
			S: a, N: len(b), B: a < b,
			L:  []string{a, b, c},
			M:  map[string]string{a: b, b: c, c: a},
			LM: map[string][]string{a: {b, c}, b: nil, c: {}},
		}
		if json.Valid(raw) {
			d.R = raw
		}
		matchesReference(t, d)
	})
}
