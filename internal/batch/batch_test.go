package batch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
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
// a payload travels raw after its header, so newlines, bytes a JSON
// encoder would escape and bytes that are not UTF-8 arrive exactly; and
// a failed item's frame is, byte for byte, the envelope line that
// json.Encoder writes for it, as earlier servers did.
func TestResultPayloadRoundTrip(t *testing.T) {
	payload := []byte("{\n  \"a\": \"<&>\",\n  \"b\": 1\n}\n\xff\x00")
	ok := ItemResult{Index: 3, Op: OpDiff, Status: 200, Result: payload}
	failed := ItemResult{Index: 4, Op: OpExtract, Status: 404,
		Error: &ItemError{Code: "unknown_library", Message: "m", Detail: "<d> & \u2028"}}
	var stream, envelope bytes.Buffer
	for _, res := range []ItemResult{ok, failed} {
		if err := WriteItem(&stream, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := json.NewEncoder(&envelope).Encode(failed); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"index":3,"op":"diff","status":200,"result":%d}`+"\n%s\n%s", len(payload), payload, envelope.Bytes())
	if stream.String() != want {
		t.Fatalf("frames:\n%q\nwant:\n%q", stream.Bytes(), want)
	}
	rd := NewReader(&stream)
	for _, res := range []ItemResult{ok, failed} {
		got, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("read back %+v, want %+v", got, res)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}
