package reconcile

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"policyoracle/internal/oracle"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

const runtimeMJ = `
package java.lang;
public class Object { }
public class String { }
public class SecurityManager {
  public void checkRead(String file) { }
  public void checkWrite(String file) { }
}
`

const libMJ = `
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

// libMJv2 drops the write check, the seeded deviation every test drifts
// toward or away from.
const libMJv2 = `
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

func sourcesOf(lib string) map[string]string {
	return map[string]string{"rt.mj": runtimeMJ, "lib.mj": lib}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(store.Config{Dir: dir, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newController(t *testing.T, s *store.Store, path string, reg *telemetry.Registry, threshold int) *Controller {
	t.Helper()
	c, err := New(Config{
		Store: s, Path: path, AlertThreshold: threshold, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkCold asserts that the report c serves for every pair it has
// observed is byte-identical to a cold diff of the pair's two bundles.
func checkCold(t *testing.T, c *Controller, s *store.Store) {
	t.Helper()
	ctx := context.Background()
	for _, p := range c.Pairs() {
		st, err := c.Pair(ctx, p.Pair)
		if err != nil {
			t.Errorf("pair %s: %v", p.Pair, err)
			continue
		}
		if want := coldDiff(t, s, st.FpA, st.FpB); !bytes.Equal(st.Report, want) {
			t.Errorf("pair %s: reconciled diff differs from cold Compare (%d vs %d bytes)",
				p.Pair, len(st.Report), len(want))
		}
	}
}

// coldDiff extracts the bundles fa and fb from scratch (fresh libraries,
// no incremental seed, no summary cache) and returns their diff's wire
// bytes.
func coldDiff(t *testing.T, s *store.Store, fa, fb string) []byte {
	t.Helper()
	libs := make([]*oracle.Library, 2)
	for i, fp := range []string{fa, fb} {
		b, err := s.Bundle(fp)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := b.Options.ToOracle()
		if err != nil {
			t.Fatal(err)
		}
		// Mirror the store's server-side extraction: display data is never
		// collected, so the option key matches the persisted blobs.
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
	wire, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// The core drift story: a deviation appears (alert fires), the reconciled
// diff is byte-identical to a cold Compare after every cycle, a restart
// resumes without duplicating history, and fixing the deviation clears
// the alert.
func TestReconcileObservesDriftResumesAndClears(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	ctx := context.Background()
	path := filepath.Join(dir, "drift.json")

	if _, err := s.Update(ctx, "ref", sourcesOf(libMJ), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctx, "impl", sourcesOf(libMJv2), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}

	c := newController(t, s, path, telemetry.New(), 1)
	if err := c.RunOnce(ctx); err != nil {
		t.Fatalf("first cycle: %v", err)
	}
	checkCold(t, c, s)
	wire := c.Timeline(0)
	if len(wire.Entries) != 1 {
		t.Fatalf("timeline after first cycle = %d entries, want 1", len(wire.Entries))
	}
	e := wire.Entries[0]
	if e.Pair != PairKey("ref", "impl") || e.Seq != 1 {
		t.Errorf("entry = %+v", e)
	}
	if e.Deviations == 0 || len(e.New) != e.Deviations || len(e.Resolved) != 0 {
		t.Errorf("first observation delta: %+v", e)
	}
	if e.Alert != "fired" {
		t.Errorf("alert = %q, want fired", e.Alert)
	}

	// The pair status serves the report whose digest the timeline recorded.
	st, err := c.Pair(ctx, e.Pair)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(st.Report)
	if hex.EncodeToString(sum[:]) != e.DiffSHA256 {
		t.Errorf("served report digest does not match timeline provenance")
	}
	if !st.AlertFiring || st.Deviations != e.Deviations {
		t.Errorf("pair status = %+v", st)
	}

	// Idempotence: nothing moved, nothing appended.
	if err := c.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	checkCold(t, c, s)
	if got := len(c.Timeline(0).Entries); got != 1 {
		t.Fatalf("idle cycle appended: %d entries", got)
	}

	// Restart: a fresh controller over the same drift store resumes from
	// the persisted fingerprints — no duplicate observation, and the
	// recomputed report still matches the recorded digest.
	c2 := newController(t, s, path, telemetry.New(), 1)
	if err := c2.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(c2.Timeline(0).Entries); got != 1 {
		t.Fatalf("restart duplicated history: %d entries", got)
	}
	st2, err := c2.Pair(ctx, e.Pair)
	if err != nil {
		t.Fatalf("recomputing report after restart: %v", err)
	}
	if string(st2.Report) != string(st.Report) {
		t.Error("report differs across restart")
	}
	checkCold(t, c2, s)

	// The deviation is fixed upstream: the next cycle records the
	// resolution and clears the alert.
	if _, err := s.Update(ctx, "impl", sourcesOf(libMJ), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	c2.Enqueue("impl")
	if err := c2.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	checkCold(t, c2, s)
	wire = c2.Timeline(0)
	if len(wire.Entries) != 2 {
		t.Fatalf("timeline after fix = %d entries, want 2", len(wire.Entries))
	}
	e2 := wire.Entries[1]
	if e2.Seq != 2 || e2.Deviations != 0 {
		t.Errorf("post-fix entry: %+v", e2)
	}
	if len(e2.Resolved) != e.Deviations || len(e2.New) != 0 {
		t.Errorf("post-fix delta: new=%v resolved=%v", e2.New, e2.Resolved)
	}
	if e2.Alert != "cleared" {
		t.Errorf("alert = %q, want cleared", e2.Alert)
	}
	st3, err := c2.Pair(ctx, e.Pair)
	if err != nil {
		t.Fatal(err)
	}
	if st3.AlertFiring {
		t.Error("alert still firing after clear")
	}
}

// A registry entry whose blobs vanish mid-reconcile (deleted between the
// plan and apply of a cycle, or by external cleanup) fails only its own
// pairs: every other pair still reconciles, the failure is counted, and
// re-uploading the library heals on the next cycle.
func TestReconcileEntryDeletedMidReconcile(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	ctx := context.Background()
	reg := telemetry.New()

	if _, err := s.Update(ctx, "liba", sourcesOf(libMJ), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctx, "libb", sourcesOf(libMJv2), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	// libc is registered via Put (lazy extraction), then its blobs are
	// deleted out from under the controller.
	fpC, _, err := s.Put("libc", sourcesOf("// variant\n"+libMJ), store.OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"bundles", "policies", "deps"} {
		matches, _ := filepath.Glob(filepath.Join(dir, sub, fpC+"*"))
		for _, m := range matches {
			os.Remove(m)
		}
	}

	c := newController(t, s, filepath.Join(dir, "drift.json"), reg, 0)
	err = c.RunOnce(ctx)
	if err == nil {
		t.Fatal("cycle with deleted entry succeeded, want pair errors")
	}
	// liba~libb is unaffected by libc's disappearance.
	if st, perr := c.Pair(ctx, PairKey("liba", "libb")); perr != nil || st.Deviations == 0 {
		t.Errorf("healthy pair not observed: %+v, %v", st, perr)
	}
	if _, perr := c.Pair(ctx, PairKey("liba", "libc")); perr == nil {
		t.Error("deleted pair has an observation")
	}
	checkCold(t, c, s)
	if txt := reg.Text(); !strings.Contains(txt, "polora_reconcile_errors_total 2") {
		t.Errorf("errors counter:\n%s", grepLine(txt, "polora_reconcile_errors_total"))
	}

	// Healing: the library is uploaded again; the next cycle observes the
	// previously failing pairs.
	if _, err := s.Update(ctx, "libc", sourcesOf("// variant\n"+libMJ), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunOnce(ctx); err != nil {
		t.Fatalf("cycle after re-upload: %v", err)
	}
	checkCold(t, c, s)
	for _, pair := range []string{PairKey("liba", "libc"), PairKey("libb", "libc")} {
		if _, perr := c.Pair(ctx, pair); perr != nil {
			t.Errorf("pair %s after heal: %v", pair, perr)
		}
	}
}

// Enqueue coalesces per library and never blocks: a storm of uploads to
// one name costs one pending slot, surplus names beyond the queue cap
// degrade to a plain wakeup, and the requeue counter records both.
func TestEnqueueCoalescesAndBounds(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	reg := telemetry.New()
	c, err := New(Config{
		Store: s, Path: filepath.Join(dir, "drift.json"),
		QueueCap: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Enqueue("liba")
	c.Enqueue("liba") // coalesced
	c.Enqueue("libb")
	c.Enqueue("libc") // over cap: wakeup only
	txt := reg.Text()
	if !strings.Contains(txt, "polora_reconcile_requeues_total 2") {
		t.Errorf("requeues:\n%s", grepLine(txt, "polora_reconcile_requeues_total"))
	}
	if !strings.Contains(txt, "polora_reconcile_pending_libraries 2") {
		t.Errorf("pending:\n%s", grepLine(txt, "polora_reconcile_pending_libraries"))
	}
	// The cycle drains the set regardless of how it was filled.
	if err := c.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reg.Text(), "polora_reconcile_pending_libraries 0") {
		t.Errorf("pending after drain:\n%s", grepLine(reg.Text(), "polora_reconcile_pending_libraries"))
	}
}

// Run cycles on wakeups and stops with its context.
func TestRunWakesOnEnqueueAndStops(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if _, err := s.Update(ctx, "ref", sourcesOf(libMJ), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Store: s, Path: filepath.Join(dir, "drift.json"),
		Interval: time.Hour, // wakeups, not ticks, must drive this test
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	if _, err := s.Update(ctx, "impl", sourcesOf(libMJv2), store.OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	c.Enqueue("impl")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(c.Timeline(0).Entries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueued update never reconciled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// Unknown pairs are a typed error so the server can map them to 404.
func TestPairUnknown(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Store: openStore(t, dir), Path: filepath.Join(dir, "drift.json")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pair(context.Background(), "a~b"); err != ErrUnknownPair {
		t.Errorf("err = %v, want ErrUnknownPair", err)
	}
}

func grepLine(txt, needle string) string {
	for _, l := range strings.Split(txt, "\n") {
		if strings.Contains(l, needle) {
			return l
		}
	}
	return fmt.Sprintf("(no %s line)", needle)
}
