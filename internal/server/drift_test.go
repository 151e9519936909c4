package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"policyoracle/internal/oracle"
	"policyoracle/internal/reconcile"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// startWatchServer wires store + reconcile controller + server exactly
// as `polorad -watch` does, with the controller loop running.
func startWatchServer(t *testing.T) (*httptest.Server, *reconcile.Controller, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: dir, MaxInflight: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := reconcile.New(reconcile.Config{
		Store: st, Path: filepath.Join(dir, "drift.json"),
		Interval: time.Hour, AlertThreshold: 1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	ts := httptest.NewServer(server.New(st, server.Options{Registry: reg, Drift: c}))
	t.Cleanup(ts.Close)
	return ts, c, st
}

// checkCold asserts that the report c serves for every pair it has
// observed is byte-identical to a cold diff of the pair's two bundles:
// fresh libraries, no incremental seed, no summary cache.
func checkCold(t *testing.T, c *reconcile.Controller, st *store.Store) {
	t.Helper()
	ctx := context.Background()
	for _, p := range c.Pairs() {
		ps, err := c.Pair(ctx, p.Pair)
		if err != nil {
			t.Errorf("pair %s: %v", p.Pair, err)
			continue
		}
		libs := make([]*oracle.Library, 2)
		for i, fp := range []string{ps.FpA, ps.FpB} {
			b, err := st.Bundle(fp)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := b.Options.ToOracle()
			if err != nil {
				t.Fatal(err)
			}
			// The store never collects display data, so the option key
			// matches the persisted blobs.
			opts.CollectPaths, opts.CollectGuards = false, false
			if libs[i], err = oracle.LoadLibrary(b.Name, b.Sources); err != nil {
				t.Fatal(err)
			}
			libs[i].Extract(opts)
		}
		rep, err := oracle.Diff(libs[0], libs[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ps.Report, want) {
			t.Errorf("pair %s: reconciled diff differs from cold Compare (%d vs %d bytes)",
				p.Pair, len(ps.Report), len(want))
		}
	}
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(body, dst); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

func waitForEntries(t *testing.T, c *reconcile.Controller, n int) reconcile.TimelineWire {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		wire := c.Timeline(0)
		if len(wire.Entries) >= n {
			return wire
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline stuck at %d entries, want %d", len(wire.Entries), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// PUTs drive the watch loop end to end: uploading two revisions yields a
// drift observation whose report is byte-identical to POST /v1/diff for
// the same fingerprints, served by GET /v1/drift/{pair}.
func TestServerDriftE2E(t *testing.T) {
	ts, c, s := startWatchServer(t)

	v1 := map[string]string{"rt.mj": updateRuntimeMJ, "lib.mj": updateLibV1MJ}
	v2 := map[string]string{"rt.mj": updateRuntimeMJ, "lib.mj": updateLibV2MJ}
	resp, refRes := doUpdate(t, ts, "ref", v1)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT ref: %d", resp.StatusCode)
	}
	resp, implRes := doUpdate(t, ts, "impl", v2)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT impl: %d", resp.StatusCode)
	}
	waitForEntries(t, c, 1)
	checkCold(t, c, s)

	var wire reconcile.TimelineWire
	if resp := getJSON(t, ts.URL+"/v1/drift", &wire); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/drift: %d", resp.StatusCode)
	}
	if wire.Version != reconcile.TimelineVersion || len(wire.Entries) != 1 {
		t.Fatalf("timeline wire: %+v", wire)
	}
	e := wire.Entries[0]
	pair := reconcile.PairKey("ref", "impl")
	if e.Pair != pair || e.Deviations == 0 || e.Alert != "fired" {
		t.Errorf("entry: %+v", e)
	}

	var st reconcile.PairStatus
	if resp := getJSON(t, ts.URL+"/v1/drift/"+pair, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/drift/%s: %d", pair, resp.StatusCode)
	}
	if !st.AlertFiring || st.Deviations != e.Deviations || len(st.Report) == 0 {
		t.Errorf("pair status: %+v", st)
	}

	// Byte-identity across surfaces: the drift report equals POST /v1/diff
	// for the same fingerprints, and both match the recorded digest.
	// (Canonical pair order may have swapped a and b relative to upload
	// order, so diff the fingerprints as the timeline recorded them.)
	fps := map[string]string{"ref": refRes.Fingerprint, "impl": implRes.Fingerprint}
	if e.FpA != fps[e.LibA] || e.FpB != fps[e.LibB] {
		t.Errorf("timeline fingerprints %s/%s do not match uploads %v", e.FpA, e.FpB, fps)
	}
	resp, diffBody := postJSON(t, ts.URL+"/v1/diff", server.DiffRequest{A: e.FpA, B: e.FpB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/diff: %d: %s", resp.StatusCode, diffBody)
	}
	// POST /v1/diff serves the exact canonical bytes the controller
	// hashed into the timeline, so the digest ties the two surfaces
	// together byte-for-byte.
	sum := sha256.Sum256(diffBody)
	if hex.EncodeToString(sum[:]) != e.DiffSHA256 {
		t.Error("POST /v1/diff bytes do not match timeline provenance digest")
	}
	// The report embedded in the pair status envelope is re-indented by
	// the envelope encoder, so compare it structurally.
	var a, b bytes.Buffer
	if err := json.Compact(&a, diffBody); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, st.Report); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("drift report does not match POST /v1/diff")
	}

	// Fix the deviation: the alert clears on the next observation. (The
	// impl@v1 bundle is new content — name is part of the address — so
	// this PUT also creates.)
	if resp, _ := doUpdate(t, ts, "impl", v1); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT impl v1: %d", resp.StatusCode)
	}
	wire = waitForEntries(t, c, 2)
	checkCold(t, c, s)
	if last := wire.Entries[len(wire.Entries)-1]; last.Alert != "cleared" || last.Deviations != 0 {
		t.Errorf("post-fix entry: %+v", last)
	}

	// ?limit trims to the newest entries.
	var limited reconcile.TimelineWire
	getJSON(t, ts.URL+"/v1/drift?limit=1", &limited)
	if len(limited.Entries) != 1 || limited.Entries[0].Seq != 2 {
		t.Errorf("limited timeline: %+v", limited.Entries)
	}
}

// Drift endpoints answer with the stable watch_disabled code when the
// controller is not wired in, and with typed errors for bad queries.
func TestServerDriftErrors(t *testing.T) {
	// No -watch: 501 watch_disabled.
	ts, _ := startServer(t)
	for _, path := range []string{"/v1/drift", "/v1/drift/a~b"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var er server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented || er.Code != server.CodeWatchDisabled {
			t.Errorf("GET %s without watch: %d %q", path, resp.StatusCode, er.Code)
		}
	}

	// With watch: malformed pair keys and unknown pairs are typed.
	wts, _, _ := startWatchServer(t)
	resp := getJSON(t, wts.URL+"/v1/drift/not-a-pair", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed pair: %d", resp.StatusCode)
	}
	resp, err := http.Get(wts.URL + "/v1/drift/a~b")
	if err != nil {
		t.Fatal(err)
	}
	var er server.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || er.Code != server.CodeUnknownPair {
		t.Errorf("unknown pair: %d %q", resp.StatusCode, er.Code)
	}
	resp = getJSON(t, wts.URL+"/v1/drift?limit=-1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit: %d", resp.StatusCode)
	}
}

// Concurrent PUTs of one name serialize server-side: every request
// succeeds, and once the storm settles a final PUT deterministically
// owns the latest-fingerprint index (last writer wins).
func TestServerConcurrentUpdatesSameName(t *testing.T) {
	ts, st := startServer(t)

	const writers = 4
	type result struct {
		status int
		res    store.UpdateResult
	}
	results := make([]result, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := map[string]string{
				"rt.mj":  updateRuntimeMJ,
				"lib.mj": fmt.Sprintf("// rev %d\n%s", i, updateLibV1MJ),
			}
			resp, res := doUpdate(t, ts, "api", src)
			results[i] = result{resp.StatusCode, res}
		}(i)
	}
	wg.Wait()

	latest := st.Names()["api"]
	found := false
	for i, r := range results {
		if r.status != http.StatusCreated {
			t.Errorf("writer %d: status %d", i, r.status)
		}
		if r.res.Fingerprint == latest {
			found = true
		}
	}
	if !found {
		t.Errorf("index fingerprint %q is not any writer's", latest)
	}

	// Last writer wins: a sequential PUT after the storm owns the index,
	// and its policies serve /v1/extract.
	resp, res := doUpdate(t, ts, "api",
		map[string]string{"rt.mj": updateRuntimeMJ, "lib.mj": updateLibV2MJ})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("final PUT: %d", resp.StatusCode)
	}
	if got := st.Names()["api"]; got != res.Fingerprint {
		t.Errorf("index = %q, want last writer %q", got, res.Fingerprint)
	}
	eResp, blob := postJSON(t, ts.URL+"/v1/extract", map[string]string{"fingerprint": res.Fingerprint})
	if eResp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Errorf("extract of last writer: %d (%d bytes)", eResp.StatusCode, len(blob))
	}
}
