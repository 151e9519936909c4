package metamorph_test

import (
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/metamorph"
)

// TestApplyStepsDeterministic pins the replay primitive crash triage
// is built on: the same trace over the same sources renders identical
// mutated sources, and each step's private seed means a subset of the
// trace replays without disturbing the surviving steps.
func TestApplyStepsDeterministic(t *testing.T) {
	src := corpus.Sources("jdk")
	trace := []metamorph.Step{
		{Mutator: "dead-stmt", Seed: 101},
		{Mutator: "rename-local", Seed: 202},
		{Mutator: "dead-branch", Seed: 303},
	}
	a, appliedA, err := metamorph.ApplySteps(src, trace)
	if err != nil {
		t.Fatal(err)
	}
	b, appliedB, err := metamorph.ApplySteps(src, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("file counts differ: %d vs %d", len(a), len(b))
	}
	for p, s := range a {
		if b[p] != s {
			t.Fatalf("replay diverged in %s", p)
		}
	}
	if len(appliedA) == 0 {
		t.Fatal("no step applied")
	}
	if len(appliedA) != len(appliedB) {
		t.Fatalf("applied lists differ: %v vs %v", appliedA, appliedB)
	}

	// Dropping the middle step must not change what the remaining
	// steps do: their seeds are private, so the subset still applies.
	subset := []metamorph.Step{trace[0], trace[2]}
	c, appliedC, err := metamorph.ApplySteps(src, subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(appliedC) == 0 {
		t.Fatal("subset applied nothing")
	}
	same := 0
	for p, s := range c {
		if a[p] == s {
			same++
		}
	}
	if same == 0 {
		t.Error("subset shares no files with the full replay; seeds are not private")
	}
}

// TestApplyStepsUnknownMutator pins the error contract for corrupt
// reproducer bundles.
func TestApplyStepsUnknownMutator(t *testing.T) {
	src := corpus.Sources("jdk")
	if _, _, err := metamorph.ApplySteps(src, []metamorph.Step{{Mutator: "no-such", Seed: 1}}); err == nil {
		t.Fatal("unknown mutator in trace did not error")
	}
}

// TestMutatorByName covers the catalog lookup both ways.
func TestMutatorByName(t *testing.T) {
	for _, m := range metamorph.Mutators() {
		got, ok := metamorph.MutatorByName(m.Name)
		if !ok || got.Name != m.Name {
			t.Errorf("MutatorByName(%q) = %q, %v", m.Name, got.Name, ok)
		}
	}
	if _, ok := metamorph.MutatorByName("bogus"); ok {
		t.Error("MutatorByName accepted a bogus name")
	}
}
