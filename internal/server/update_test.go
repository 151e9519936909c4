package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"policyoracle"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

const updateRuntimeMJ = `
package java.lang;
public class Object { }
public class String { }
public class SecurityManager {
  public void checkRead(String file) { }
  public void checkWrite(String file) { }
}
`

const updateLibV1MJ = `
package api;
import java.lang.*;
public class Store {
  private SecurityManager sm;
  public void put(String key) {
    sm.checkWrite(key);
    write0(key);
  }
  public String get(String key) {
    sm.checkRead(key);
    return read0(key);
  }
  native void write0(String key);
  native String read0(String key);
}
`

// updateLibV2MJ edits put only: get and the runtime are untouched.
const updateLibV2MJ = `
package api;
import java.lang.*;
public class Store {
  private SecurityManager sm;
  public void put(String key) {
    write0(key);
  }
  public String get(String key) {
    sm.checkRead(key);
    return read0(key);
  }
  native void write0(String key);
  native String read0(String key);
}
`

func putJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func doUpdate(t *testing.T, ts *httptest.Server, name string, sources map[string]string) (*http.Response, store.UpdateResult) {
	t.Helper()
	resp, body := putJSON(t, ts.URL+"/v1/libraries/"+name, server.UpdateRequest{Sources: sources})
	var res store.UpdateResult
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("update %s: decoding %q: %v", name, body, err)
		}
	}
	return resp, res
}

// TestServerUpdateE2E drives the delta-aware flow over HTTP: first PUT
// creates and fully extracts, the second re-analyzes only the entries
// reached by the edit, and the served policy bytes stay byte-identical
// to an in-process extraction.
func TestServerUpdateE2E(t *testing.T) {
	ts, _ := startServer(t)
	v1 := map[string]string{"rt.mj": updateRuntimeMJ, "lib.mj": updateLibV1MJ}
	v2 := map[string]string{"rt.mj": updateRuntimeMJ, "lib.mj": updateLibV2MJ}

	resp, res1 := doUpdate(t, ts, "api", v1)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first update: status %d", resp.StatusCode)
	}
	if !res1.Created || res1.Incremental || res1.Entries == 0 || res1.Reanalyzed != res1.Entries {
		t.Errorf("first update: %+v, want full extraction of a new bundle", res1)
	}

	resp, res2 := doUpdate(t, ts, "api", v2)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second update: status %d", resp.StatusCode)
	}
	if !res2.Created || !res2.Incremental {
		t.Errorf("second update: %+v, want incremental extraction", res2)
	}
	if res2.Reused == 0 || res2.Reanalyzed == 0 || res2.Reused+res2.Reanalyzed != res2.Entries {
		t.Errorf("second update stats: %+v", res2)
	}

	// The served blob equals the CLI/in-process wire bytes.
	lib, err := policyoracle.LoadLibrary("api", v2)
	if err != nil {
		t.Fatal(err)
	}
	lib.Extract(policyoracle.DefaultOptions())
	want, err := lib.Policies.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postJSON(t, ts.URL+"/v1/extract", map[string]string{"fingerprint": res2.Fingerprint})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("incrementally extracted policies differ from in-process ExportJSON (%d vs %d bytes)",
			len(got), len(want))
	}

	// Idempotent re-PUT of existing content: 200, nothing re-analyzed.
	resp, res3 := doUpdate(t, ts, "api", v2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent update: status %d", resp.StatusCode)
	}
	if res3.Created || res3.Fingerprint != res2.Fingerprint || res3.Reused != res3.Entries {
		t.Errorf("idempotent update: %+v", res3)
	}
	if st := stats(t, ts); st.Extractions != 2 {
		t.Errorf("Extractions = %d, want 2 (third PUT reused stored policies)", st.Extractions)
	}
}

func TestServerUpdateErrors(t *testing.T) {
	ts, _ := startServer(t)

	// Undecodable body.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/libraries/api", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d: %s", resp.StatusCode, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != server.CodeBadRequest {
		t.Errorf("bad body envelope: %s (err %v)", body, err)
	}

	// Validation failures surface as 400s via store.ErrInvalid.
	for name, req := range map[string]server.UpdateRequest{
		"no sources":  {},
		"bad options": {Sources: map[string]string{"rt.mj": updateRuntimeMJ}, Options: store.OptionsWire{Events: "bogus"}},
		"unloadable":  {Sources: map[string]string{"x.mj": "class { nonsense"}},
	} {
		resp, body := putJSON(t, ts.URL+"/v1/libraries/api", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
			continue
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Code != server.CodeBadRequest {
			t.Errorf("%s envelope: %s (err %v)", name, body, err)
		}
	}
}

// A store that cannot write its files is the server's failure, not the
// client's: with the store's bundles/ directory replaced by a regular
// file, POST and PUT /v1/libraries both answer 500 extract_failed. A
// file rather than a permission change, so the write fails even when
// the test runs as root.
func TestUploadWriteFailureIsServerError(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	st, err := store.Open(store.Config{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(st, server.Options{Registry: reg}))
	t.Cleanup(ts.Close)
	bundles := filepath.Join(dir, "bundles")
	if err := os.Remove(bundles); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bundles, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{"rt.mj": updateRuntimeMJ, "lib.mj": updateLibV1MJ}
	for route, send := range map[string]func() (*http.Response, []byte){
		"POST": func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/libraries", server.UploadRequest{Name: "api", Sources: sources})
		},
		"PUT": func() (*http.Response, []byte) {
			return putJSON(t, ts.URL+"/v1/libraries/api", server.UpdateRequest{Sources: sources})
		},
	} {
		resp, body := send()
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusInternalServerError || er.Code != server.CodeExtractFailed {
			t.Errorf("%s with an unwritable store: status %d: %s, want 500 %s", route, resp.StatusCode, body, server.CodeExtractFailed)
		}
	}
}
