package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"policyoracle/internal/secmodel"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// polorad is an in-process polorad: a store and its server behind a real
// loopback listener, configured like cmd/polorad with its shipped
// defaults except for the memory-cache size.
type polorad struct {
	dir  string
	st   *store.Store
	hs   *http.Server
	done chan struct{}
	base string
	http *http.Client

	// Handles on the program's own instruments, read for the traced
	// split; registering an existing metric name returns its family.
	hm *telemetry.HTTPMetrics
	bm *telemetry.BatchMetrics
	sm *telemetry.StoreMetrics
	xm *telemetry.ExtractMetrics
}

// startPolorad opens a fresh store in dir with a memory cache of cache
// blobs (polorad -cache, which defaults to 128) and serves it on a
// loopback port.
func startPolorad(dir string, cache int) (*polorad, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: dir, CacheEntries: cache, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &polorad{
		dir:  dir,
		st:   st,
		hs:   &http.Server{Handler: server.New(st, server.Options{Registry: reg})},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		http: &http.Client{Timeout: time.Minute},
		hm:   telemetry.NewHTTPMetrics(reg),
		bm:   telemetry.NewBatchMetrics(reg),
		sm:   telemetry.NewStoreMetrics(reg),
		xm:   telemetry.NewExtractMetrics(reg),
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return d, nil
}

// stop shuts the server down, waits for it, and removes the store.
func (d *polorad) stop() {
	if d == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
	d.http.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// call sends one JSON request and returns the 2xx response body; a
// non-2xx status is an error carrying the error envelope.
func (d *polorad) call(method, path string, body any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// upload stores one library with POST /v1/libraries and returns its
// fingerprint.
func (d *polorad) upload(name string, sources map[string]string) (string, error) {
	out, err := d.call("POST", "/v1/libraries", server.UploadRequest{Name: name, Sources: sources})
	if err != nil {
		return "", err
	}
	var r server.UploadResponse
	if err := json.Unmarshal(out, &r); err != nil {
		return "", err
	}
	return r.Fingerprint, nil
}

// routeTime reads the server's own latency histogram for one route:
// total seconds and request count.
func (d *polorad) routeTime(route string) (sum, count float64) {
	h := d.hm.Duration.With(route)
	return h.Sum(), h.Count()
}

// modeStats reads the extractor's per-mode instruments: wall seconds
// (the Library.MayTime/MustTime of every pass) and work counters.
func (d *polorad) modeStats() map[string]float64 {
	dom := secmodel.SecurityManager().ID()
	out := map[string]float64{}
	for _, mode := range []string{"may", "must"} {
		out["analysis."+mode+"_busy_ms"] = d.xm.ModeDuration.With(mode, dom).Sum() * 1e3
		out["analysis.method_analyses"] += d.xm.MethodAnalyses.With(mode, dom).Value()
		out["memo_hits"] += d.xm.MemoHits.With(mode, dom).Value()
		out["constprop.runs"] += d.xm.CPRuns.With(mode, dom).Value()
		out["cp_hits"] += d.xm.CPHits.With(mode, dom).Value()
	}
	return out
}
