package jsonread_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"policyoracle/internal/jsonread"
)

// skipAll checks one top-level value of any type, as a decoder skips the
// value of an unknown key.
func skipAll(data []byte) error {
	r := jsonread.New(data)
	r.Skip()
	r.End()
	return r.Err()
}

// FuzzSkipMatchesValid holds the reader's grammar to encoding/json's: a
// skipped top-level value is accepted exactly when json.Valid accepts
// the input, nesting limit included.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, s := range []string{
		`null`, `true`, `-0.5e+3`, `"aé😀"`, "\"\xff\"", `{"a":[1,{"b":null}],"c":{}}`,
		`[1,2,]`, `{"a" 1}`, `[01]`, `"\x"`, `"\u12"`, "\"a\x01\"", `{"a":1}}`, `[] x`, ``, ` `,
		strings.Repeat("[", jsonread.MaxDepth) + strings.Repeat("]", jsonread.MaxDepth),
		strings.Repeat("[", jsonread.MaxDepth+1) + strings.Repeat("]", jsonread.MaxDepth+1),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := skipAll(data); (err == nil) != json.Valid(data) {
			t.Fatalf("Skip error %v, json.Valid %v, on %q", err, json.Valid(data), data)
		}
	})
}

// TestSkipSurvivesHostileNesting: nesting far past the limit, and input
// that ends inside a deep value, are ordinary errors.
func TestSkipSurvivesHostileNesting(t *testing.T) {
	for name, src := range map[string]string{
		"arrays":               strings.Repeat("[", 1_000_000),
		"objects":              strings.Repeat(`{"a":`, 1_000_000),
		"ends inside a string": `["` + strings.Repeat("a", 4<<20),
		"closes the wrong way": `[` + strings.Repeat("[", 5000) + strings.Repeat("}", 5001),
	} {
		if err := skipAll([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestKey pins key matching: exact first, then bytes.EqualFold, and a
// known key named twice in one object is ErrDuplicateKey.
func TestKey(t *testing.T) {
	keys := []string{"index", "status"}
	for _, tc := range []struct {
		src  string
		want []int
		dup  bool
	}{
		{`{"index":1,"status":2,"other":3}`, []int{0, 1, jsonread.Unknown}, false},
		{`{"INDEX":1,"ſtatus":2,"index2":3}`, []int{0, 1, jsonread.Unknown}, false},
		{`{"x":1,"x":2}`, []int{jsonread.Unknown, jsonread.Unknown}, false},
		{`{"index":1,"Index":2}`, []int{0}, true},
	} {
		r := jsonread.New([]byte(tc.src))
		var (
			seen uint64
			got  []int
		)
		r.Open('{')
		for r.More('}') {
			k := r.Key(keys, &seen)
			if r.Err() != nil {
				break
			}
			got = append(got, k)
			r.Skip()
		}
		if dup := errors.Is(r.Err(), jsonread.ErrDuplicateKey); dup != tc.dup || (!tc.dup && r.Err() != nil) {
			t.Errorf("%s: error %v, want duplicate=%v", tc.src, r.Err(), tc.dup)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: keys %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestInt pins strconv.ParseInt's rules for an int field, and that null
// leaves the old value.
func TestInt(t *testing.T) {
	for src, want := range map[string]int{`7`: 7, `-0`: 0, `-12`: -12, `null`: 42, `9223372036854775807`: 1<<63 - 1} {
		r := jsonread.New([]byte(src))
		if got := r.Int(42); got != want || r.Err() != nil {
			t.Errorf("Int(%s) = %d, %v; want %d", src, got, r.Err(), want)
		}
	}
	for _, src := range []string{`1.0`, `1e0`, `9223372036854775808`, `"1"`, `true`, `-`, `01`} {
		r := jsonread.New([]byte(src))
		r.Int(0)
		if r.End(); r.Err() == nil {
			t.Errorf("Int(%s) accepted", src)
		}
	}
}

// TestMarkRewind decodes one value twice.
func TestMarkRewind(t *testing.T) {
	r := jsonread.New([]byte(`{"a":"x","b":1}`))
	var seen uint64
	r.Open('{')
	r.More('}')
	r.Key([]string{"a"}, &seen)
	m := r.Mark()
	first := r.String("")
	r.Rewind(m)
	if again := r.String(""); again != first || first != "x" {
		t.Fatalf("rewound decode %q, first %q", again, first)
	}
	for r.More('}') {
		r.Key(nil, &seen)
		r.Skip()
	}
	if r.End(); r.Err() != nil {
		t.Fatal(r.Err())
	}
}
