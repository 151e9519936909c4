package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"policyoracle"
	"policyoracle/internal/batch"
	"policyoracle/internal/ring"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// tier is an in-process multi-replica polorad deployment: n servers
// over n independent store directories, joined by peer backends on one
// consistent-hash ring.
type tier struct {
	servers []*httptest.Server
	stores  []*store.Store
	urls    []string
}

// startTier boots n replicas. Member identity is each replica's base
// URL, installed after every listener is bound — the same late binding
// polorad does between flag parsing and serving.
func startTier(t *testing.T, n int) *tier {
	t.Helper()
	tr := &tier{}
	var backends []*store.PeerBackend
	for i := 0; i < n; i++ {
		reg := telemetry.New()
		pb := store.NewPeerBackend(store.PeerConfig{Registry: reg})
		st, err := store.Open(store.Config{
			Dir: t.TempDir(), MaxInflight: 4,
			Backends: []store.Backend{pb}, Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(st, server.Options{Registry: reg}))
		t.Cleanup(ts.Close)
		tr.servers = append(tr.servers, ts)
		tr.stores = append(tr.stores, st)
		tr.urls = append(tr.urls, ts.URL)
		backends = append(backends, pb)
	}
	for i, pb := range backends {
		pb.SetMembers(tr.urls, tr.urls[i])
	}
	return tr
}

// referenceWire computes the single-node reference bytes: the exact
// output of `polora export` for each library and `polora diff -json`
// for the pair.
func referenceWire(t *testing.T) (wantJDK, wantHarmony, wantDiff []byte) {
	t.Helper()
	opts := policyoracle.DefaultOptions()
	libs := map[string]*policyoracle.Library{}
	for _, name := range []string{"jdk", "harmony"} {
		lib, err := policyoracle.LoadLibrary(name, policyoracle.BuiltinCorpus(name))
		if err != nil {
			t.Fatal(err)
		}
		lib.Extract(opts)
		libs[name] = lib
	}
	var err error
	if wantJDK, err = libs["jdk"].Policies.ExportJSON(); err != nil {
		t.Fatal(err)
	}
	if wantHarmony, err = libs["harmony"].Policies.ExportJSON(); err != nil {
		t.Fatal(err)
	}
	rep, err := policyoracle.Diff(libs["jdk"], libs["harmony"])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep.ToJSON()); err != nil {
		t.Fatal(err)
	}
	return wantJDK, wantHarmony, buf.Bytes()
}

// TestDistributedBatchByteIdentity is the tentpole acceptance test: a
// 3-replica tier takes uploads through replica 0 only, serves a batch
// through replica 1 (which holds nothing locally and must peer-fetch),
// routes a ring-aware client batch across all members, and survives the
// dropout of a non-uploading replica — with every payload byte-identical
// to the single-node `polora export` / `polora diff -json` wire.
func TestDistributedBatchByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tr := startTier(t, 3)
	fpJDK := upload(t, tr.servers[0], "jdk")
	fpHarmony := upload(t, tr.servers[0], "harmony")
	wantJDK, wantHarmony, wantDiff := referenceWire(t)

	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpDiff, A: fpJDK, B: fpHarmony},
		{Op: batch.OpExtract, Fingerprint: fpHarmony},
		{Op: batch.OpExtract, Fingerprint: policyoracle.Fingerprint(
			"ghost", map[string]string{"f": "x"}, policyoracle.DefaultOptions())},
	}
	wantPayload := [][]byte{wantJDK, wantDiff, wantHarmony, nil}

	// Direct batch through replica 1: every blob must arrive over the
	// peer tier, streamed as batch frames in input order and read through
	// the client's Reader.
	body, _ := json.Marshal(batch.Request{Items: items})
	resp, err := http.Post(tr.urls[1]+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != batch.ContentType {
		t.Errorf("batch Content-Type %q, want %q", ct, batch.ContentType)
	}
	rd := batch.NewReader(resp.Body)
	for i := range items {
		res, err := rd.Next()
		if err != nil {
			t.Fatalf("batch stream ended after %d of %d items: %v", i, len(items), err)
		}
		if res.Index != i {
			t.Fatalf("batch stream out of input order: got index %d at position %d", res.Index, i)
		}
		if wantPayload[i] == nil {
			if res.Error == nil || res.Error.Code != server.CodeUnknownLibrary || res.Status != http.StatusNotFound {
				t.Errorf("item %d: want a 404 unknown_library envelope, got %+v", i, res)
			}
			continue
		}
		if res.Error != nil {
			t.Errorf("item %d failed: %+v", i, res.Error)
			continue
		}
		if !bytes.Equal(res.Result, wantPayload[i]) {
			t.Errorf("item %d: served bytes differ from the single-node wire (%d vs %d bytes)",
				i, len(res.Result), len(wantPayload[i]))
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("after the last item: %v, want io.EOF", err)
	}
	if st := tr.stores[1].Stats(); st.BackendHits == 0 {
		t.Error("replica 1 served the batch without a single peer fetch")
	}
	// The peer series surfaces on replica 1's scrape endpoint.
	mresp, err := http.Get(tr.urls[1] + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(scrape, []byte(`polora_peer_fetch_total{outcome="hit"}`)) {
		t.Error("replica 1 scrape misses polora_peer_fetch_total hits")
	}
	if !bytes.Contains(scrape, []byte("polora_batch_requests_total")) {
		t.Error("replica 1 scrape misses polora_batch_requests_total")
	}

	// Ring-aware client across the full member set: merged results in
	// input order, same bytes.
	client := &batch.Client{Members: tr.urls, Retries: 1, Backoff: 20 * time.Millisecond}
	results, err := client.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	checkBatchResults(t, "full tier", results, wantPayload)

	// Dropout: close a replica that items route to. Replica 0 is the
	// only one holding the bundles, so the victim is a ring owner other
	// than it (falling back to replica 1, which by now holds peer-fetched
	// blobs). The client must retry, drop the member, reroute, and still
	// produce identical bytes.
	r := ring.New(tr.urls)
	victim := ""
	for _, it := range items[:3] {
		if owner := r.Owner(it.RouteKey()); owner != tr.urls[0] {
			victim = owner
			break
		}
	}
	if victim == "" {
		victim = tr.urls[1]
	}
	for i, u := range tr.urls {
		if u == victim {
			tr.servers[i].Close()
		}
	}
	results, err = client.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("batch after owner dropout: %v", err)
	}
	checkBatchResults(t, "after dropout", results, wantPayload)
}

func checkBatchResults(t *testing.T, phase string, results []batch.ItemResult, want [][]byte) {
	t.Helper()
	if len(results) != len(want) {
		t.Fatalf("%s: %d results for %d items", phase, len(results), len(want))
	}
	for i, res := range results {
		if want[i] == nil {
			if res.Error == nil || res.Error.Code != server.CodeUnknownLibrary {
				t.Errorf("%s: item %d: want unknown_library envelope, got %+v", phase, i, res)
			}
			continue
		}
		if res.Error != nil {
			t.Errorf("%s: item %d failed: %+v", phase, i, res.Error)
			continue
		}
		if !bytes.Equal(res.Result, want[i]) {
			t.Errorf("%s: item %d differs from the single-node wire (%d vs %d bytes)",
				phase, i, len(res.Result), len(want[i]))
		}
	}
}

// TestBatchItemCap pins the documented per-request cap: one item over
// MaxBatchItems rejects the whole request with the stable
// batch_too_large code before any item runs.
func TestBatchItemCap(t *testing.T) {
	ts, _ := startServer(t)
	items := make([]batch.Item, server.MaxBatchItems+1)
	for i := range items {
		items[i] = batch.Item{Op: batch.OpExtract, Fingerprint: fmt.Sprintf("po1-%032d", i)}
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", batch.Request{Items: items})
	var envelope server.ErrorResponse
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("cap rejection is not an error envelope: %.200s", body)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Code != server.CodeBatchTooLarge {
		t.Fatalf("over-cap batch: status %d code %q, want 413 %q",
			resp.StatusCode, envelope.Code, server.CodeBatchTooLarge)
	}
}

// TestBatchClientResumesSeveredStream pins mid-batch dropout at the
// stream level: a replica that dies after streaming part of its
// response loses only what it had not streamed whole. The client keeps
// the items whose frames arrived complete, records nothing for an item
// cut inside its payload, and retries just the missing items.
func TestBatchClientResumesSeveredStream(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: t.TempDir(), MaxInflight: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	inner := server.New(st, server.Options{Registry: reg})
	ts := httptest.NewServer(inner)
	t.Cleanup(ts.Close)
	fpJDK := upload(t, ts, "jdk")
	fpHarmony := upload(t, ts, "harmony")
	wantJDK, wantHarmony, wantDiff := referenceWire(t)
	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpJDK},
		{Op: batch.OpDiff, A: fpJDK, B: fpHarmony},
		{Op: batch.OpExtract, Fingerprint: fpHarmony},
	}

	// frameEnd returns the lengths of the header line and of the whole
	// frame that body starts with. It runs in the front's handler, so it
	// reports a malformed frame with Errorf.
	frameEnd := func(body []byte) (header, whole int) {
		line, _, _ := bytes.Cut(body, []byte("\n"))
		var h struct{ Result int }
		if err := json.Unmarshal(line, &h); err != nil || h.Result == 0 {
			t.Errorf("not a success header: %q", line)
		}
		return len(line) + 1, len(line) + 1 + h.Result + 1
	}
	for name, cut := range map[string]func(body []byte) int{
		"after the first whole frame": func(body []byte) int {
			_, whole := frameEnd(body)
			return whole
		},
		"inside the second frame's payload": func(body []byte) int {
			_, first := frameEnd(body)
			header, whole := frameEnd(body[first:])
			return first + (header+whole)/2
		},
	} {
		t.Run(name, func(t *testing.T) {
			// Front: the first batch request streams its response up to
			// the cut, then severs the connection; later requests pass
			// through untouched.
			var batches, itemsSeen atomic.Int64
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/batch") {
					n := batches.Add(1)
					body, _ := io.ReadAll(r.Body)
					var req batch.Request
					json.Unmarshal(body, &req)
					itemsSeen.Add(int64(len(req.Items)))
					if n == 1 {
						rec := httptest.NewRecorder()
						r2 := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
						r2.Header.Set("Content-Type", "application/json")
						inner.ServeHTTP(rec, r2)
						w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
						w.Write(rec.Body.Bytes()[:cut(rec.Body.Bytes())])
						if f, ok := w.(http.Flusher); ok {
							f.Flush()
						}
						panic(http.ErrAbortHandler) // sever mid-stream
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
				}
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(front.Close)

			client := &batch.Client{Members: []string{front.URL}, Retries: 2, Backoff: 10 * time.Millisecond}
			results, err := client.Run(context.Background(), items)
			if err != nil {
				t.Fatalf("severed stream was not survived: %v", err)
			}
			checkBatchResults(t, "severed stream", results, [][]byte{wantJDK, wantDiff, wantHarmony})
			if batches.Load() < 2 {
				t.Fatalf("only %d batch request(s); the sever never happened", batches.Load())
			}
			// The retry re-requested only the items the severed stream did
			// not deliver whole: 3 in the first request, 2 in the second.
			if got := itemsSeen.Load(); got != 5 {
				t.Errorf("replica saw %d items across retries, want 5 (3 + the 2 undelivered)", got)
			}
		})
	}
}
