package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"policyoracle"
	"policyoracle/internal/batch"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/jsonread"
	"policyoracle/internal/oracle"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// decodeSeeds reach the corners of encoding/json's decisions that the
// one-pass envelope decoder must reproduce.
var decodeSeeds = []string{
	`null`,
	`[]`,
	``,
	` {"index":1,"op":"extract","status":200,"result":"QUJD"} ` + "\r\n",
	// Keys match exactly or else under bytes.EqualFold: "ſ" folds to
	// "s"; the Kelvin sign folds to "k", which no known key holds.
	`{"INDEX":2,"Op":"diff","STATUS":200,"ReSuLt":"QUJD"}`,
	`{"ſtatus":404,"reſult":null,"error":{"Code":"x","meſſage":"m","DETAIL":"d"}}`,
	`{"Key":1,"index":1}`,
	`{"index":7,"op":"diff"}`,
	// null in every field.
	`{"index":null,"op":null,"status":null,"result":null,"error":null}`,
	`{"error":{"code":null,"message":null,"detail":null}}`,
	`{"error":{}}`,
	// result: "" is empty and null is nil; escapes decode before base64,
	// which skips an escaped newline but must not see a raw CR or LF.
	`{"result":""}`,
	`{"result":null}`,
	`{"result":"QU\/D"}`,
	`{"result":"QUJD\nRA=="}`,
	`{"result":"QUJD\u000dRA=="}`,
	"{\"result\":\"QUJD\rRA==\"}",
	"{\"result\":\"QUJD\nRA==\"}",
	"{\"result\":\"QU\xc3\xa9D\"}",
	`{"result":"QUJ"}`,
	`{"result":"Q!JD"}`,
	`{"result":"QUJD`,
	// A []byte also decodes from an array of bytes.
	`{"result":[1,2,null,255]}`,
	`{"result":[]}`,
	`{"result":[256]}`,
	`{"result":[-0]}`,
	`{"result":[1.0]}`,
	`{"result":[[1]]}`,
	// index and status go through strconv.ParseInt.
	`{"index":1.0}`,
	`{"index":-0}`,
	`{"index":9223372036854775807}`,
	`{"index":9223372036854775808}`,
	`{"status":1e2}`,
	// Wrong JSON types for known keys.
	`{"index":"1"}`,
	`{"op":1}`,
	`{"result":5}`,
	`{"error":"x"}`,
	`{"error":[]}`,
	`{"error":{"code":1}}`,
	// An unknown key holds nested values, which are skipped but checked.
	`{"x":{"a":[1,-2.5e+3,{"b":null,"c":[true,false]}],"d":"é"},"index":1,"y":[[],{}]}`,
	`{"x":[1,2,],"index":1}`,
	`{"x":[01],"index":1}`,
	// Trailing data.
	`{"index":1} {"index":2}`,
	`{"index":1}x`,
	`{"index":1}}`,
	// An HTML-escaped error detail, as the server's encoder writes it.
	`{"index":3,"op":"extract","status":400,"error":{"code":"bad_request","message":"bad request",` +
		`"detail":"unknown op \"\u003cscript\u003e\" \u0026 \u2028"}}`,
	// Repeated keys: encoding/json keeps the last, the decoder rejects.
	`{"index":1,"index":2}`,
	`{"result":"QUJD","Result":"QUJD"}`,
}

// FuzzDecodeResult checks the client's envelope decoder against
// json.Unmarshal, which the parent's json.Decoder loop ran per line: on
// any line both accept or both reject, and what both accept decodes to
// the same ItemResult. The one allowed difference is the deliberate
// narrowing: the decoder may reject a repeated known key, and says so
// with jsonread.ErrDuplicateKey.
func FuzzDecodeResult(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	payload := []byte("{\n  \"a\": \"<&>\",\n  \"b\": 1\n}\n")
	for _, res := range []batch.ItemResult{
		{Index: 1, Op: batch.OpExtract, Status: 200, Result: payload},
		{Op: batch.OpDiff, Status: 404, Error: &batch.ItemError{Code: "unknown_library", Message: "m", Detail: "<d>"}},
	} {
		line, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := batch.DecodeResult(line)
		var want batch.ItemResult
		refErr := json.Unmarshal(line, &want)
		if errors.Is(err, jsonread.ErrDuplicateKey) {
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeResult error %v, json.Unmarshal error %v, on %q", err, refErr, line)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodes of %q differ:\n%#v\n%#v", line, got, want)
		}
	})
}

// TestDecodeResultNarrowings pins where the client deliberately parts
// from the json.Decoder loop: a repeated known key, a line holding more
// than one envelope, and an envelope spread over several lines are all
// errors.
func TestDecodeResultNarrowings(t *testing.T) {
	for _, line := range []string{`{"index":1,"index":2}`, `{"error":{"code":"a","CODE":"b"}}`} {
		if _, err := batch.DecodeResult([]byte(line)); !errors.Is(err, jsonread.ErrDuplicateKey) {
			t.Errorf("DecodeResult(%s) = %v, want jsonread.ErrDuplicateKey", line, err)
		}
	}
	env := `{"index":0,"op":"extract","status":200,"result":"QUJD"}`
	for name, stream := range map[string]string{
		"two envelopes on one line":  env + env + "\n",
		"an envelope over two lines": `{"index":0,"op":"extract",` + "\n" + `"status":200,"result":"QUJD"}` + "\n" + env,
	} {
		if _, err := batch.RefReadStream(strings.NewReader(stream), 2); err != nil {
			t.Fatalf("%s: the reference loop rejects it too: %v", name, err)
		}
		if got, err := batch.ReadStream(strings.NewReader(stream), 2); err == nil {
			t.Errorf("%s: accepted as %+v", name, got)
		}
	}
}

// startPolorad serves a fresh in-process polorad, counting the
// connections it accepts.
func startPolorad(t *testing.T, conns *atomic.Int64) *httptest.Server {
	t.Helper()
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: t.TempDir(), MaxInflight: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(server.New(st, server.Options{Registry: reg}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// post sends body as JSON to url and returns the response body.
func post(t *testing.T, url string, body any) []byte {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %s %v: %s", url, resp.Status, err, out)
	}
	return out
}

// upload registers a bundled library and returns its fingerprint.
func upload(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	var ur server.UploadResponse
	body := post(t, ts.URL+"/v1/libraries", server.UploadRequest{Name: name, Sources: policyoracle.BuiltinCorpus(name)})
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	return ur.Fingerprint
}

// TestStreamMatchesReference feeds a real /v1/batch response, holding
// extract, diff and error envelopes, through the client's stream loop
// and the json.Decoder loop it replaced, reshaped in every way NDJSON
// framing allows: CRLF endings, a blank line, no final newline, and
// reads of one byte at a time. Both loops must return the same results.
func TestStreamMatchesReference(t *testing.T) {
	ts := startPolorad(t, new(atomic.Int64))
	fpJDK, fpHarmony := upload(t, ts, "jdk"), upload(t, ts, "harmony")
	ghost := policyoracle.Fingerprint("ghost", map[string]string{"f": "x"}, policyoracle.DefaultOptions())
	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpDiff, A: fpJDK, B: fpHarmony},
		{Op: batch.OpExtract, Fingerprint: ghost},
		{Op: "explode"},
		{Op: batch.OpDiff, A: fpHarmony, B: fpJDK},
	}
	body := post(t, ts.URL+"/v1/batch", batch.Request{Items: items})
	if bytes.Count(body, []byte("\n")) != len(items) {
		t.Fatalf("response is not %d NDJSON lines:\n%.300s", len(items), body)
	}
	first, rest, _ := bytes.Cut(body, []byte("\n"))
	shapes := map[string][]byte{
		"as served":        body,
		"CRLF endings":     bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n")),
		"a blank line":     slices.Concat(first, []byte("\n \t\r\n\n"), rest),
		"no final newline": bytes.TrimSuffix(body, []byte("\n")),
	}
	var want []batch.ItemResult
	for name, shape := range shapes {
		for _, oneByte := range []bool{false, true} {
			reader := func() io.Reader {
				if oneByte {
					return iotest.OneByteReader(bytes.NewReader(shape))
				}
				return bytes.NewReader(shape)
			}
			got, err := batch.ReadStream(reader(), len(items))
			ref, refErr := batch.RefReadStream(reader(), len(items))
			if err != nil || refErr != nil {
				t.Fatalf("%s (one byte at a time: %v): stream error %v, reference error %v", name, oneByte, err, refErr)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s (one byte at a time: %v): the loops disagree", name, oneByte)
			}
			want = ref
		}
	}
	for i, code := range []string{"", "", server.CodeUnknownLibrary, server.CodeBadRequest, ""} {
		res := want[i]
		switch {
		case res.Index != i:
			t.Errorf("item %d: index %d", i, res.Index)
		case code == "" && (res.Status != http.StatusOK || len(res.Result) == 0):
			t.Errorf("item %d: want a payload, got status %d, error %+v", i, res.Status, res.Error)
		case code != "" && (res.Error == nil || res.Error.Code != code):
			t.Errorf("item %d: want a %s envelope, got %+v", i, code, res)
		}
	}
}

// TestClientReusesConnection pins that a batch returns its connection to
// the pool: the client reads each stream to its end before closing it,
// so sequential batches share one keep-alive connection.
func TestClientReusesConnection(t *testing.T) {
	var conns atomic.Int64
	ts := startPolorad(t, &conns)
	fpJDK, fpHarmony := upload(t, ts, "jdk"), upload(t, ts, "harmony")
	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpDiff, A: fpJDK, B: fpHarmony},
	}
	client := &batch.Client{Members: []string{ts.URL}}
	conns.Store(0)
	for range 20 {
		if _, err := client.Run(context.Background(), items); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n > 1 {
		t.Errorf("20 sequential batches opened %d new connections, want at most 1", n)
	}
}

// TestClientSurvivesHostileStreams answers every batch with a hostile
// stream. Each must end in an error from Run after the chunk's retry,
// never a panic, a stack overflow or a hang.
func TestClientSurvivesHostileStreams(t *testing.T) {
	env := func(i int) string {
		return fmt.Sprintf(`{"index":%d,"op":"extract","status":200,"result":"QUJD"}`, i)
	}
	for name, stream := range map[string]func(n int) string{
		"deep nesting under an unknown key": func(int) string {
			return `{"index":0,"x":` + strings.Repeat("[", 1_000_000) + "\n"
		},
		"a 4 MiB line ending inside result": func(int) string {
			return `{"index":0,"op":"extract","status":200,"result":"` + strings.Repeat("A", 4<<20)
		},
		"a truncated final line": func(n int) string {
			var b strings.Builder
			for i := range n - 1 {
				b.WriteString(env(i) + "\n")
			}
			last := env(n - 1)
			return b.String() + last[:len(last)/2]
		},
		"two envelopes on one line": func(n int) string {
			var b strings.Builder
			for i := range n {
				b.WriteString(env(i))
			}
			return b.String() + "\n"
		},
	} {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				var req batch.Request
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Error(err)
				}
				w.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(w, stream(len(req.Items)))
			}))
			defer ts.Close()
			client := &batch.Client{Members: []string{ts.URL}, Retries: 1, Backoff: time.Millisecond}
			items := []batch.Item{{Op: batch.OpExtract, Fingerprint: "po1-a"}, {Op: batch.OpExtract, Fingerprint: "po1-b"}}
			if res, err := client.Run(context.Background(), items); err == nil {
				t.Fatalf("Run accepted the stream: %+v", res)
			}
			if n := requests.Load(); n != 2 {
				t.Errorf("%d requests, want 2: the first and its retry", n)
			}
		})
	}
}

var benchResult batch.ItemResult

// BenchmarkDecodeResult decodes one extract envelope per op: the
// gen.Small jdk blob, base64-encoded as the server streams it.
func BenchmarkDecodeResult(b *testing.B) {
	l, err := oracle.LoadLibrary("jdk", gen.Generate(gen.Small()).Sources["jdk"])
	if err != nil {
		b.Fatal(err)
	}
	l.Extract(oracle.DefaultOptions())
	blob, err := l.Policies.ExportJSON()
	if err != nil {
		b.Fatal(err)
	}
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(batch.ItemResult{Op: batch.OpExtract, Status: 200, Result: blob}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(line.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := batch.DecodeResult(line.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}
