package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"policyoracle/internal/batch"
	"policyoracle/internal/ring"
)

// startTierDaemon boots one replica of a peered polorad tier: every
// replica gets the same -peers list and advertises its own listen
// address as its ring identity.
func startTierDaemon(t *testing.T, bin, addr, storeDir string, peers []string) *daemon {
	t.Helper()
	d := &daemon{logs: &bytes.Buffer{}}
	d.cmd = exec.Command(bin,
		"-addr", addr, "-store", storeDir,
		"-peers", strings.Join(peers, ","), "-advertise", addr,
		"-parallel", "1")
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("peered polorad never became healthy:\n%s", d.logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// uploadFP posts a library through one replica and returns the
// fingerprint the tier will address it by.
func uploadFP(t *testing.T, addr, name string, sources map[string]string) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{"name": name, "sources": sources})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/libraries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: %d: %s", name, resp.StatusCode, out)
	}
	var ur struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(out, &ur); err != nil {
		t.Fatal(err)
	}
	return ur.Fingerprint
}

// writeSourceDir materializes a source map for the single-node polora
// CLI, whose reads key sources by relative path just like the upload.
func writeSourceDir(t *testing.T, dir string, sources map[string]string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range sources {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistributedTierBatchMatchesCLI is the distributed-e2e CI leg: three
// real polorad replicas joined by -peers, uploads through replica 0 only,
// `polora batch` routed across the tier, the owner of a fingerprint
// SIGKILLed, and every payload byte-compared against the single-node
// `polora export` / `polora diff -json` output.
func TestDistributedTierBatchMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	binDir := t.TempDir()
	polorad := buildBinary(t, binDir, "polorad", ".")
	polora := buildBinary(t, binDir, "polora", "policyoracle/cmd/polora")

	work := t.TempDir()
	refSources := map[string]string{"rt.mj": watchRuntimeMJ, "lib.mj": watchLibV1MJ}
	implSources := map[string]string{"rt.mj": watchRuntimeMJ, "lib.mj": watchLibV2MJ}
	refDir := filepath.Join(work, "ref")
	implDir := filepath.Join(work, "impl")
	writeSourceDir(t, refDir, refSources)
	writeSourceDir(t, implDir, implSources)

	peers := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	daemons := make([]*daemon, len(peers))
	for i, addr := range peers {
		daemons[i] = startTierDaemon(t, polorad, addr,
			filepath.Join(work, fmt.Sprintf("store-%d", i)), peers)
	}

	fpRef := uploadFP(t, peers[0], "ref", refSources)
	fpImpl := uploadFP(t, peers[0], "impl", implSources)

	// `polora fingerprint` addresses the same content identically.
	out, err := exec.Command(polora, "fingerprint", refDir).CombinedOutput()
	if err != nil {
		t.Fatalf("polora fingerprint: %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != fpRef {
		t.Fatalf("polora fingerprint = %s, tier addresses %s", got, fpRef)
	}

	// Single-node reference wires.
	refJSON := filepath.Join(work, "ref-export.json")
	implJSON := filepath.Join(work, "impl-export.json")
	for dir, path := range map[string]string{refDir: refJSON, implDir: implJSON} {
		if out, err := exec.Command(polora, "export", dir, path).CombinedOutput(); err != nil {
			t.Fatalf("polora export %s: %v\n%s", dir, err, out)
		}
	}
	wantDiff, err := exec.Command(polora, "diff", "-json", refDir, implDir).Output()
	if err != nil {
		t.Fatalf("polora diff -json: %v", err)
	}
	wantRef, err := os.ReadFile(refJSON)
	if err != nil {
		t.Fatal(err)
	}
	wantImpl, err := os.ReadFile(implJSON)
	if err != nil {
		t.Fatal(err)
	}

	items := []batch.Item{
		{Op: batch.OpExtract, Fingerprint: fpRef},
		{Op: batch.OpDiff, A: fpRef, B: fpImpl},
		{Op: batch.OpExtract, Fingerprint: fpImpl},
	}
	itemsPath := filepath.Join(work, "items.json")
	itemsData, err := json.Marshal(batch.Request{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(itemsPath, itemsData, 0o644); err != nil {
		t.Fatal(err)
	}
	wantFiles := map[string][]byte{
		"item-0000.extract.json": wantRef,
		"item-0001.diff.json":    wantDiff,
		"item-0002.extract.json": wantImpl,
	}

	runBatch := func(outDir, remote string) {
		t.Helper()
		cmd := exec.Command(polora, "batch",
			"-remote", remote,
			"-in", itemsPath, "-out", outDir,
			"-retries", "2", "-backoff", "50ms", "-v")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("polora batch: %v\n%s", err, out)
		}
		for name, want := range wantFiles {
			got, err := os.ReadFile(filepath.Join(outDir, name))
			if err != nil {
				t.Fatalf("batch output %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the single-node wire (%d vs %d bytes)", name, len(got), len(want))
			}
		}
	}
	runBatch(filepath.Join(work, "out-full"), strings.Join(peers, ","))

	// SIGKILL the ring owner of a fingerprint (replica 0 keeps the
	// bundles, so the victim is an owner other than it; every other
	// replica can refetch blobs from replica 0 over /v1/blob). The same
	// batch against the unchanged -remote list must detect the dead
	// member, reroute, and reproduce identical bytes.
	r := ring.New(peers)
	victim := peers[1]
	for _, it := range items {
		if owner := r.Owner(it.RouteKey()); owner != peers[0] {
			victim = owner
			break
		}
	}
	for i, addr := range peers {
		if addr == victim {
			if err := daemons[i].cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			daemons[i].cmd.Wait()
		}
	}
	runBatch(filepath.Join(work, "out-dropout"), strings.Join(peers, ","))

	// Batch-read through a single surviving non-uploader replica: it owns
	// none of the bundles, so every payload it serves crossed the peer
	// tier at some point — and its scrape proves it.
	edge := peers[1]
	if edge == victim {
		edge = peers[2]
	}
	runBatch(filepath.Join(work, "out-edge"), edge)
	resp, err := http.Get("http://" + edge + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("polora_batch_requests_total")) {
		t.Errorf("edge replica metricsz misses polora_batch_requests_total")
	}
	if !bytes.Contains(metrics, []byte(`polora_peer_fetch_total{outcome="hit"}`)) {
		t.Errorf("edge replica served the tier without a single peer-fetch hit")
	}
}
