package batch

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestItemValidate(t *testing.T) {
	cases := []struct {
		name string
		item Item
		want string // substring of the error; "" = valid
	}{
		{"extract ok", Item{Op: OpExtract, Fingerprint: "po1-a"}, ""},
		{"diff ok", Item{Op: OpDiff, A: "po1-a", B: "po1-b"}, ""},
		{"extract missing fp", Item{Op: OpExtract}, "missing fingerprint"},
		{"extract with diff fields", Item{Op: OpExtract, Fingerprint: "po1-a", A: "po1-b"}, "carries diff fields"},
		{"diff missing side", Item{Op: OpDiff, A: "po1-a"}, "missing a or b"},
		{"diff with extract field", Item{Op: OpDiff, A: "po1-a", B: "po1-b", Fingerprint: "po1-c"}, "carries extract field"},
		{"unknown op", Item{Op: "explode"}, "unknown op"},
		{"empty op", Item{}, "unknown op"},
	}
	for _, tc := range cases {
		err := tc.item.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestItemRouteKey(t *testing.T) {
	if got := (Item{Op: OpExtract, Fingerprint: "po1-x"}).RouteKey(); got != "po1-x" {
		t.Errorf("extract route key = %q", got)
	}
	// Diffs route by A: the diff runs where A's blob lives.
	if got := (Item{Op: OpDiff, A: "po1-a", B: "po1-b"}).RouteKey(); got != "po1-a" {
		t.Errorf("diff route key = %q", got)
	}
}

// TestResultPayloadRoundTrip pins the byte-identity transport contract:
// payload bytes survive the JSON envelope exactly, including trailing
// newlines and characters an HTML-escaping raw embedding would mangle,
// whether the envelope is read by encoding/json or by the client's
// one-pass decoder.
func TestResultPayloadRoundTrip(t *testing.T) {
	payload := []byte("{\n  \"a\": \"<&>\",\n  \"b\": 1\n}\n")
	line, err := json.Marshal(ItemResult{Index: 3, Op: OpDiff, Status: 200, Result: payload})
	if err != nil {
		t.Fatal(err)
	}
	var got ItemResult
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if string(got.Result) != string(payload) {
		t.Fatalf("payload mutated in transit:\n%q\n%q", got.Result, payload)
	}
	got, err = decodeResult(line)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Result) != string(payload) || got.Index != 3 || got.Op != OpDiff || got.Status != 200 {
		t.Fatalf("one-pass decode differs: %+v", got)
	}
}
