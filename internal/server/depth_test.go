package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"policyoracle/internal/parser"
	"policyoracle/internal/server"
)

// TestDeepNestingUploadIsRejected posts and PUTs a library whose one
// method nests parentheses 10⁶ deep, a 2 MB body that overflowed the
// parser's stack and killed the daemon before the parser had a depth
// limit. Both answer 400 bad_request naming the limit, and the server
// goes on to serve a normal upload.
func TestDeepNestingUploadIsRejected(t *testing.T) {
	ts, _ := startServer(t)
	const n = 1_000_000
	sources := map[string]string{"C.mj": "package p; public class C { public int m() { return " +
		strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; } }"}
	limit := fmt.Sprintf("parser depth limit of %d", parser.MaxDepth)
	post, postBody := postJSON(t, ts.URL+"/v1/libraries", server.UploadRequest{Name: "deep", Sources: sources})
	put, putBody := putJSON(t, ts.URL+"/v1/libraries/deep", server.UpdateRequest{Sources: sources})
	for _, r := range []struct {
		method string
		resp   *http.Response
		body   []byte
	}{{"POST", post, postBody}, {"PUT", put, putBody}} {
		if r.resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %.200s", r.method, r.resp.StatusCode, r.body)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(r.body, &er); err != nil {
			t.Fatalf("%s: not an error envelope: %.200s", r.method, r.body)
		}
		if er.Code != server.CodeBadRequest || !strings.Contains(er.Message+er.Detail, limit) {
			t.Errorf("%s: envelope %+v, want bad_request naming the depth limit", r.method, er)
		}
	}
	if fp := upload(t, ts, "jdk"); fp == "" {
		t.Error("normal upload after the rejected one returned no fingerprint")
	}
}
