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
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"policyoracle"
	"policyoracle/internal/batch"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/jsonread"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// headerSeeds reach the corners of encoding/json's decisions that the
// one-pass header decoder must reproduce.
var headerSeeds = []string{
	`null`,
	`[]`,
	``,
	` {"index":1,"op":"extract","status":200,"result":3} ` + "\r",
	// Keys match exactly or else under bytes.EqualFold: "ſ" folds to
	// "s"; the Kelvin sign folds to "k", which no known key holds.
	`{"INDEX":2,"Op":"diff","STATUS":200,"ReSuLt":3}`,
	`{"ſtatus":404,"reſult":null,"error":{"Code":"x","meſſage":"m","DETAIL":"d"}}`,
	`{"Key":1,"index":1}`,
	`{"index":7,"op":"diff"}`,
	// null in every field.
	`{"index":null,"op":null,"status":null,"result":null,"error":null}`,
	`{"error":{"code":null,"message":null,"detail":null}}`,
	`{"error":{}}`,
	// index, status and result go through strconv.ParseInt.
	`{"index":1.0}`,
	`{"index":-0}`,
	`{"index":9223372036854775807}`,
	`{"index":9223372036854775808}`,
	`{"status":1e2}`,
	`{"result":-1}`,
	`{"result":1.5}`,
	`{"result":4611686018427387904}`,
	// Wrong JSON types for known keys.
	`{"index":"1"}`,
	`{"op":1}`,
	`{"result":"3"}`,
	`{"result":[3]}`,
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
	`{"result":3,"Result":3}`,
}

// checkHeader holds one line's decode to json.Unmarshal's into the
// header type: both accept or both reject, and what both accept decodes
// to the same header. The one allowed difference is the deliberate
// narrowing: the decoder may reject a repeated known key, and says so
// with jsonread.ErrDuplicateKey.
func checkHeader(t *testing.T, line []byte) {
	t.Helper()
	got, err := batch.DecodeHeader(line)
	var want batch.Header
	refErr := json.Unmarshal(line, &want)
	if errors.Is(err, jsonread.ErrDuplicateKey) {
		return
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeHeader error %v, json.Unmarshal error %v, on %q", err, refErr, line)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodes of %q differ:\n%#v\n%#v", line, got, want)
	}
}

// streamSeeds are whole streams at the corners of the framing: what
// follows a header, payloads that look like headers, and headers that
// lie about their payload.
var streamSeeds = []string{
	`{"index":0,"op":"extract","status":200,"result":3}` + "\r\nABC\n",
	"\n" + `{"index":0,"op":"extract","status":200,"result":3}` + "\nABC\n",
	`{"index":0,"op":"extract","status":200,"result":1}` + "\n\n\n",
	`{"index":0,"op":"diff","status":200,"result":47}` + "\n" +
		`{"index":1,"op":"diff","status":200,"result":2}` + "\n",
	`{"index":0,"op":"extract","status":200,"result":0}` + "\n\n",
	`{"index":0,"op":"extract","status":404,"result":3}` + "\nABC\n",
	`{"index":0,"op":"extract","status":200,"result":-1}` + "\nABC\n",
	`{"index":0,"op":"extract","status":200,"result":03}` + "\nABC\n",
	`{"index":0,"op":"extract","status":200,"result":3}{"index":1}` + "\nABC\n",
	`{"index":0,"op":"extract",` + "\n" + `"status":200,"result":3}` + "\nABC\n",
	`{"index":0,"op":"extract","status":200,"result":3}` + "\nABC\n" + `{"index":1,"op":"diff","status":404}` + "\n",
}

// FuzzDecodeResult drives the client's Reader over arbitrary streams
// and checks three things:
//   - every line of the stream, as a header, decodes as json.Unmarshal
//     decodes it into the header type (checkHeader);
//   - every item the Reader yields is the frame at its place in the
//     stream: a header line that json.Unmarshal decodes to the item's
//     index, op, status and error, and for status 200 exactly the
//     header's result count of bytes after it, then a newline;
//   - nothing panics.
func FuzzDecodeResult(f *testing.F) {
	for _, s := range headerSeeds {
		f.Add([]byte(s + "\n"))
	}
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	payload := []byte("{\n  \"a\": \"<&>\",\n  \"b\": 1\n}\n")
	ok := batch.ItemResult{Index: 1, Op: batch.OpExtract, Status: 200, Result: payload}
	failed := batch.ItemResult{Op: batch.OpDiff, Status: 404, Error: &batch.ItemError{Code: "unknown_library", Message: "m", Detail: "<d>"}}
	var frames, earlier bytes.Buffer
	for _, res := range []batch.ItemResult{ok, failed, ok} {
		if err := batch.WriteItem(&frames, res); err != nil {
			f.Fatal(err)
		}
		// An earlier server's stream: NDJSON envelopes, base64 results.
		if err := json.NewEncoder(&earlier).Encode(res); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(frames.Bytes())
	f.Add(earlier.Bytes())
	for _, tail := range []string{"ABC\n", "ABCD\n", "AB", "ABC\r\n", "\n"} {
		f.Add([]byte(`{"index":0,"op":"extract","status":200,"result":3}` + "\n" + tail))
	}
	f.Add([]byte(`{"index":0,"op":"extract","status":200,"result":4611686018427387904}` + "\nABC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			checkHeader(t, line)
		}
		got, _ := batch.ReadStream(bytes.NewReader(data), 64)
		rest := data
		for i, res := range got {
			line, after, found := bytes.Cut(rest, []byte("\n"))
			if !found {
				t.Fatalf("item %d yielded without a header line: %+v", i, res)
			}
			var h batch.Header
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatalf("item %d yielded from a header json.Unmarshal rejects (%v): %q", i, err, line)
			}
			if h.Index != res.Index || h.Op != res.Op || h.Status != res.Status || !reflect.DeepEqual(h.Error, res.Error) {
				t.Fatalf("item %d is %+v, its header %+v", i, res, h)
			}
			if res.Status != http.StatusOK {
				if res.Result != nil {
					t.Fatalf("item %d: status %d with a payload", i, res.Status)
				}
				rest = after
				continue
			}
			if len(res.Result) != h.Result || h.Result >= len(after) ||
				!bytes.Equal(res.Result, after[:h.Result]) || after[h.Result] != '\n' {
				t.Fatalf("item %d: a %d-byte payload for header %q", i, len(res.Result), line)
			}
			rest = after[h.Result+1:]
		}
	})
}

// TestDecodeResultNarrowings pins where the client's header decoder
// deliberately parts from json.Unmarshal and a json.Decoder loop: a
// repeated known key, a line holding more than one header, and a header
// spread over several lines are all errors.
func TestDecodeResultNarrowings(t *testing.T) {
	for _, line := range []string{`{"index":1,"index":2}`, `{"error":{"code":"a","CODE":"b"}}`} {
		if _, err := batch.DecodeHeader([]byte(line)); !errors.Is(err, jsonread.ErrDuplicateKey) {
			t.Errorf("DecodeHeader(%s) = %v, want jsonread.ErrDuplicateKey", line, err)
		}
	}
	hdr := `{"index":0,"op":"diff","status":404}`
	for name, stream := range map[string]string{
		"two headers on one line": hdr + hdr + "\n",
		"a header over two lines": `{"index":0,"op":"diff",` + "\n" + `"status":404}` + "\n" + hdr + "\n",
	} {
		if got, err := batch.ReadStream(strings.NewReader(stream), 2); err == nil {
			t.Errorf("%s: accepted as %+v", name, got)
		}
	}
}

// frame is a successful extract item's frame with payload "ABC".
func frame(i int) string {
	return fmt.Sprintf(`{"index":%d,"op":"extract","status":200,"result":3}`+"\nABC\n", i)
}

// TestMalformedFramesFail: result is a non-negative integer, a frame
// carries a payload exactly when its status is 200, and a newline
// follows the payload. Any other frame is an error.
func TestMalformedFramesFail(t *testing.T) {
	hdr := `{"index":0,"op":"extract","status":200,"result":3}` + "\n"
	for name, stream := range map[string]string{
		"a negative result":               `{"index":0,"op":"extract","status":200,"result":-3}` + "\nABC\n",
		"a fractional result":             `{"index":0,"op":"extract","status":200,"result":3.0}` + "\nABC\n",
		"a base64 string result":          `{"index":0,"op":"extract","status":200,"result":"QUJD"}` + "\nABC\n",
		"a numeric string result":         `{"index":0,"op":"extract","status":200,"result":"3"}` + "\nABC\n",
		"status 200 without a result":     `{"index":0,"op":"extract","status":200}` + "\nABC\n",
		"status 200 with a null result":   `{"index":0,"op":"extract","status":200,"result":null}` + "\nABC\n",
		"an error with a payload":         `{"index":0,"op":"extract","status":404,"result":3,"error":{"code":"unknown_library"}}` + "\nABC\n",
		"a byte in place of the newline":  hdr + "ABCD\n",
		"a CR in place of the newline":    hdr + "ABC\r\n",
		"the end in place of the newline": hdr + "ABC",
		"the end inside the payload":      hdr + "AB",
	} {
		if got, err := batch.ReadStream(strings.NewReader(stream), 1); err == nil {
			t.Errorf("%s: accepted as %+v", name, got)
		}
	}
	if _, err := batch.ReadStream(strings.NewReader(hdr+"ABC\n"), 1); err != nil {
		t.Fatalf("a well-formed frame: %v", err)
	}
}

// TestClaimedLengthNeverSizesAllocation: a header claiming 2⁶² bytes,
// followed by a few bytes and the end of the stream, is an error after
// allocating under 2 MiB; and a payload longer than the buffer the
// reader sizes ahead arrives whole.
func TestClaimedLengthNeverSizesAllocation(t *testing.T) {
	stream := `{"index":0,"op":"extract","status":200,"result":4611686018427387904}` + "\nABC"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := batch.ReadStream(strings.NewReader(stream), 1)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a 2⁶²-byte claim over 3 bytes: %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Errorf("reading it allocated %d bytes, want under 2 MiB", n)
	}

	payload := bytes.Repeat([]byte("0123456789abcdef\n"), 3<<20/17)
	var frames bytes.Buffer
	if err := batch.WriteItem(&frames, batch.ItemResult{Op: batch.OpDiff, Status: 200, Result: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := batch.ReadStream(iotest.HalfReader(&frames), 1)
	if err != nil || !bytes.Equal(got[0].Result, payload) {
		t.Fatalf("a %d-byte payload: error %v", len(payload), err)
	}
}

// TestMixedVersionsFailClosed: an earlier reader on a current stream,
// and the current reader on an earlier server's stream, each end in an
// error before yielding any status-200 item. An earlier server wrote
// each item as the NDJSON envelope json.Encoder writes for an
// ItemResult, its payload base64-encoded in result.
func TestMixedVersionsFailClosed(t *testing.T) {
	ts := startPolorad(t, new(atomic.Int64))
	fpJDK := upload(t, ts, "jdk", policyoracle.BuiltinCorpus("jdk"))
	ghost := policyoracle.Fingerprint("ghost", map[string]string{"f": "x"}, policyoracle.DefaultOptions())
	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: ghost},
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpExtract, Fingerprint: fpJDK},
	}
	_, current := postBatch(t, ts.URL, items)
	results, err := batch.ReadStream(bytes.NewReader(current), len(items))
	if err != nil {
		t.Fatal(err)
	}
	var earlier bytes.Buffer
	enc := json.NewEncoder(&earlier)
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	for name, read := range map[string]func() ([]batch.ItemResult, error){
		"an earlier reader on the current stream": func() ([]batch.ItemResult, error) {
			return batch.RefReadStream(bytes.NewReader(current), len(items))
		},
		"the current reader on an earlier stream": func() ([]batch.ItemResult, error) {
			return batch.ReadStream(bytes.NewReader(earlier.Bytes()), len(items))
		},
	} {
		got, err := read()
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		for _, res := range got {
			if res.Status == http.StatusOK {
				t.Errorf("%s: yielded status-200 item %d with a %d-byte payload", name, res.Index, len(res.Result))
			}
		}
		if len(got) != 1 || got[0].Error == nil || got[0].Error.Code != server.CodeUnknownLibrary {
			t.Errorf("%s: yielded %+v, want only the leading unknown_library item", name, got)
		}
	}
}

// startPolorad serves a fresh in-process polorad, counting the
// connections it accepts.
func startPolorad(tb testing.TB, conns *atomic.Int64) *httptest.Server {
	tb.Helper()
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: tb.TempDir(), MaxInflight: 4, Registry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(server.New(st, server.Options{Registry: reg}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	tb.Cleanup(ts.Close)
	return ts
}

// post sends body as JSON to url and returns the response and its body.
func post(tb testing.TB, url string, body any) (*http.Response, []byte) {
	tb.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, out
}

// postOK is post for a request that must succeed.
func postOK(tb testing.TB, url string, body any) []byte {
	tb.Helper()
	resp, out := post(tb, url, body)
	if resp.StatusCode >= 300 {
		tb.Fatalf("POST %s: %s: %s", url, resp.Status, out)
	}
	return out
}

// postBatch posts items to /v1/batch and checks the response's
// Content-Type.
func postBatch(tb testing.TB, base string, items []batch.Item) (*http.Response, []byte) {
	tb.Helper()
	resp, body := post(tb, base+"/v1/batch", batch.Request{Items: items})
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != batch.ContentType {
		tb.Fatalf("batch: %s, Content-Type %q, want 200 and %q", resp.Status, ct, batch.ContentType)
	}
	return resp, body
}

// upload registers a library and returns its fingerprint.
func upload(tb testing.TB, ts *httptest.Server, name string, sources map[string]string) string {
	tb.Helper()
	var ur server.UploadResponse
	body := postOK(tb, ts.URL+"/v1/libraries", server.UploadRequest{Name: name, Sources: sources})
	if err := json.Unmarshal(body, &ur); err != nil {
		tb.Fatal(err)
	}
	return ur.Fingerprint
}

// TestStreamMatchesReference reads a real /v1/batch response, holding
// extract, diff and error items, through the client's Reader, as served
// and in reads of one byte and of half the asked length. Each payload
// must be the single-item endpoint's bytes and each failure its error
// envelope; and the stream must be exactly the frames of what was read,
// with every failed item the envelope line earlier servers wrote.
func TestStreamMatchesReference(t *testing.T) {
	ts := startPolorad(t, new(atomic.Int64))
	fpJDK := upload(t, ts, "jdk", policyoracle.BuiltinCorpus("jdk"))
	fpHarmony := upload(t, ts, "harmony", policyoracle.BuiltinCorpus("harmony"))
	ghost := policyoracle.Fingerprint("ghost", map[string]string{"f": "x"}, policyoracle.DefaultOptions())
	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpDiff, A: fpJDK, B: fpHarmony},
		{Op: batch.OpExtract, Fingerprint: ghost},
		{Op: "explode"},
		{Op: batch.OpDiff, A: fpHarmony, B: fpJDK},
	}
	_, body := postBatch(t, ts.URL, items)
	var want []batch.ItemResult
	for name, reader := range map[string]func() io.Reader{
		"as served":           func() io.Reader { return bytes.NewReader(body) },
		"one byte at a time":  func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) },
		"half of each length": func() io.Reader { return iotest.HalfReader(bytes.NewReader(body)) },
	} {
		got, err := batch.ReadStream(reader(), len(items))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want != nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read differently", name)
		}
		want = got
	}

	var frames bytes.Buffer
	for i, res := range want {
		it := items[i]
		if res.Index != i || res.Op != it.Op {
			t.Errorf("item %d: index %d, op %q", i, res.Index, res.Op)
		}
		if res.Status == http.StatusOK {
			fmt.Fprintf(&frames, `{"index":%d,"op":%q,"status":200,"result":%d}`+"\n%s\n", i, it.Op, len(res.Result), res.Result)
		} else if err := json.NewEncoder(&frames).Encode(res); err != nil {
			t.Fatal(err)
		}
		var ref *http.Response
		var refBody []byte
		switch it.Op {
		case batch.OpExtract:
			ref, refBody = post(t, ts.URL+"/v1/extract", map[string]string{"fingerprint": it.Fingerprint})
		case batch.OpDiff:
			ref, refBody = post(t, ts.URL+"/v1/diff", server.DiffRequest{A: it.A, B: it.B})
		default:
			if res.Status != http.StatusBadRequest || res.Error == nil || res.Error.Code != server.CodeBadRequest {
				t.Errorf("item %d: want a 400 bad_request envelope, got %+v", i, res)
			}
			continue
		}
		if res.Status != ref.StatusCode {
			t.Errorf("item %d: status %d, the single-item endpoint %d", i, res.Status, ref.StatusCode)
		}
		if res.Status == http.StatusOK {
			if !bytes.Equal(res.Result, refBody) {
				t.Errorf("item %d: payload differs from the single-item endpoint's bytes (%d vs %d bytes)", i, len(res.Result), len(refBody))
			}
			continue
		}
		var envelope server.ErrorResponse
		if err := json.Unmarshal(refBody, &envelope); err != nil {
			t.Fatal(err)
		}
		if res.Error == nil || *res.Error != (batch.ItemError{Code: envelope.Code, Message: envelope.Message, Detail: envelope.Detail}) {
			t.Errorf("item %d: error %+v, the single-item endpoint's %+v", i, res.Error, envelope)
		}
	}
	if !bytes.Equal(frames.Bytes(), body) {
		t.Errorf("the stream is not the frames of its items:\n%.400q\nwant:\n%.400q", body, frames.Bytes())
	}
}

// TestClientReusesConnection pins that a batch returns its connection to
// the pool: the client reads each stream to its end before closing it,
// so sequential batches share one keep-alive connection.
func TestClientReusesConnection(t *testing.T) {
	var conns atomic.Int64
	ts := startPolorad(t, &conns)
	fpJDK := upload(t, ts, "jdk", policyoracle.BuiltinCorpus("jdk"))
	fpHarmony := upload(t, ts, "harmony", policyoracle.BuiltinCorpus("harmony"))
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
// never a panic, a stack overflow, a hang or an allocation the claimed
// length sizes.
func TestClientSurvivesHostileStreams(t *testing.T) {
	for name, stream := range map[string]func(n int) string{
		"deep nesting under an unknown key": func(int) string {
			return `{"index":0,"x":` + strings.Repeat("[", 1_000_000) + "\n"
		},
		"a 4 MiB line ending inside result": func(int) string {
			return `{"index":0,"op":"extract","status":200,"result":` + strings.Repeat("9", 4<<20)
		},
		"a claimed length past the stream's end": func(int) string {
			return `{"index":0,"op":"extract","status":200,"result":4611686018427387904}` + "\nABC"
		},
		"a truncated final line": func(n int) string {
			var b strings.Builder
			for i := range n - 1 {
				b.WriteString(frame(i))
			}
			last := frame(n - 1)
			return b.String() + last[:len(last)/2]
		},
		"two envelopes on one line": func(n int) string {
			var b strings.Builder
			for i := range n {
				b.WriteString(strings.TrimSuffix(frame(i), "\nABC\n"))
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
				w.Header().Set("Content-Type", batch.ContentType)
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

// TestClientRefusesOtherContentType: a replica that answers another
// Content-Type, as an earlier polorad answered application/x-ndjson,
// fails the batch at once, with no retry and naming the replica.
func TestClientRefusesOtherContentType(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(batch.ItemResult{Op: batch.OpExtract, Status: 200, Result: []byte("ABC")})
	}))
	defer ts.Close()
	client := &batch.Client{Members: []string{ts.URL}, Retries: 2, Backoff: time.Millisecond}
	res, err := client.Run(context.Background(), []batch.Item{{Op: batch.OpExtract, Fingerprint: "po1-a"}})
	if err == nil {
		t.Fatalf("Run accepted the stream: %+v", res)
	}
	if !strings.Contains(err.Error(), ts.URL) || !strings.Contains(err.Error(), "application/x-ndjson") {
		t.Errorf("error %q names neither the replica nor the type", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("%d requests, want 1: the refusal is not retried", n)
	}
}

var benchResults []batch.ItemResult

// BenchmarkReadStream reads one real /v1/batch response per op: a
// gen.Small corpus's jdk and harmony extracts and their diffs both ways,
// as polorad frames them.
func BenchmarkReadStream(b *testing.B) {
	ts := startPolorad(b, new(atomic.Int64))
	c := gen.Generate(gen.Small())
	fpJDK := upload(b, ts, "jdk", c.Sources["jdk"])
	fpHarmony := upload(b, ts, "harmony", c.Sources["harmony"])
	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpExtract, Fingerprint: fpHarmony},
		{Op: batch.OpDiff, A: fpJDK, B: fpHarmony},
		{Op: batch.OpDiff, A: fpHarmony, B: fpJDK},
	}
	_, body := postBatch(b, ts.URL, items)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := batch.ReadStream(bytes.NewReader(body), len(items))
		if err != nil {
			b.Fatal(err)
		}
		benchResults = res
	}
}
