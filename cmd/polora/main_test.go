package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the polora binary once per test binary run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "polora")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building CLI: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCLI(t)
	corpusDir := t.TempDir()

	// corpus: write the bundled implementations.
	out, err := runCLI(t, bin, "corpus", corpusDir)
	if err != nil {
		t.Fatalf("corpus: %v\n%s", err, out)
	}
	for _, lib := range []string{"jdk", "harmony", "classpath"} {
		if !strings.Contains(out, lib) {
			t.Errorf("corpus output missing %s:\n%s", lib, out)
		}
	}

	// diff: the Figure 1 difference must be reported.
	out, err = runCLI(t, bin, "diff",
		filepath.Join(corpusDir, "jdk"), filepath.Join(corpusDir, "harmony"))
	if err != nil {
		t.Fatalf("diff: %v\n%s", err, out)
	}
	for _, want := range []string{"matching entry points", "checkAccept", "DatagramSocket.connect"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// diff -witness: dynamic confirmation lines appear.
	out, err = runCLI(t, bin, "diff", "-witness", "-entry", "DatagramSocket",
		filepath.Join(corpusDir, "jdk"), filepath.Join(corpusDir, "harmony"))
	if err != nil {
		t.Fatalf("diff -witness: %v\n%s", err, out)
	}
	if !strings.Contains(out, "CONFIRMED: harmony does not enforce checkAccept") {
		t.Errorf("witness confirmation missing:\n%s", out)
	}

	// policies: Figure 2-style output for the JDK.
	out, err = runCLI(t, bin, "policies", "-entry", "DatagramSocket.connect",
		filepath.Join(corpusDir, "jdk"))
	if err != nil {
		t.Fatalf("policies: %v\n%s", err, out)
	}
	for _, want := range []string{"MUST check", "MAY", "checkMulticast"} {
		if !strings.Contains(out, want) {
			t.Errorf("policies output missing %q:\n%s", want, out)
		}
	}

	// export / diff-policies: the policy-sharing workflow of the paper's
	// Discussion section.
	policiesFile := filepath.Join(t.TempDir(), "jdk.json")
	out, err = runCLI(t, bin, "export", filepath.Join(corpusDir, "jdk"), policiesFile)
	if err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}
	out, err = runCLI(t, bin, "diff-policies", policiesFile, filepath.Join(corpusDir, "harmony"))
	if err != nil {
		t.Fatalf("diff-policies: %v\n%s", err, out)
	}
	if !strings.Contains(out, "(shared) vs") || !strings.Contains(out, "checkAccept") {
		t.Errorf("diff-policies output missing content:\n%s", out)
	}

	// diff -json emits a machine-readable report.
	out, err = runCLI(t, bin, "diff", "-json",
		filepath.Join(corpusDir, "jdk"), filepath.Join(corpusDir, "harmony"))
	if err != nil {
		t.Fatalf("diff -json: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"matchingEntries"`) || !strings.Contains(out, `"checkAccept"`) {
		t.Errorf("JSON output missing content:\n%s", out)
	}

	// fingerprint: deterministic content address, sensitive to options.
	fp1, err := runCLI(t, bin, "fingerprint", filepath.Join(corpusDir, "jdk"))
	if err != nil {
		t.Fatalf("fingerprint: %v\n%s", err, fp1)
	}
	if !strings.HasPrefix(fp1, "po1-") {
		t.Errorf("fingerprint output %q lacks po1- prefix", fp1)
	}
	fp2, err := runCLI(t, bin, "fingerprint", filepath.Join(corpusDir, "jdk"))
	if err != nil {
		t.Fatalf("fingerprint: %v\n%s", err, fp2)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint not deterministic: %q vs %q", fp1, fp2)
	}
	fpBroad, err := runCLI(t, bin, "fingerprint", "-broad", filepath.Join(corpusDir, "jdk"))
	if err != nil {
		t.Fatalf("fingerprint -broad: %v\n%s", err, fpBroad)
	}
	if fpBroad == fp1 {
		t.Error("fingerprint ignores -broad")
	}

	// fuzz: a short metamorphic campaign over one corpus directory must
	// apply rewrites and report zero invariant violations.
	out, err = runCLI(t, bin, "fuzz", "-seed", "11", "-rounds", "4",
		filepath.Join(corpusDir, "jdk"))
	if err != nil {
		t.Fatalf("fuzz: %v\n%s", err, out)
	}
	for _, want := range []string{"4 rounds over", "rewrites applied", "violations 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("fuzz output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("fuzz reported violations:\n%s", out)
	}

	// exceptions: the §8 extension reports the Figure 8 difference.
	out, err = runCLI(t, bin, "exceptions",
		filepath.Join(corpusDir, "jdk"), filepath.Join(corpusDir, "harmony"))
	if err != nil {
		t.Fatalf("exceptions: %v\n%s", err, out)
	}
	if !strings.Contains(out, "UnsupportedEncodingException") {
		t.Errorf("exceptions output missing difference:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCLI(t)
	if out, err := runCLI(t, bin, "diff", "/nonexistent-a", "/nonexistent-b"); err == nil {
		t.Errorf("diff of missing dirs succeeded:\n%s", out)
	}
	if out, err := runCLI(t, bin, "frobnicate"); err == nil {
		t.Errorf("unknown command succeeded:\n%s", out)
	}
	if out, err := runCLI(t, bin, "policies", "-memo", "bogus", t.TempDir()); err == nil {
		t.Errorf("bogus memo mode accepted:\n%s", out)
	}
	// The witness has no JSON form: the pair is rejected before loading.
	if out, err := runCLI(t, bin, "diff", "-witness", "-json", "/nonexistent-a", "/nonexistent-b"); err == nil || !strings.Contains(out, "-witness") {
		t.Errorf("diff -witness -json not rejected up front:\n%s", out)
	}
}
