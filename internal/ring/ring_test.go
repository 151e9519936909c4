package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("po1-%032x", i)
	}
	return out
}

// Ownership is a pure function of the member set: member order, ring
// rebuilds, and repeated lookups all agree.
func TestOwnerDeterministic(t *testing.T) {
	members := []string{"10.0.0.1:8075", "10.0.0.2:8075", "10.0.0.3:8075"}
	shuffled := []string{"10.0.0.3:8075", "10.0.0.1:8075", "10.0.0.2:8075"}
	a, b := New(members, 0), New(shuffled, 0)
	for _, k := range keys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %s differs across member orderings: %q vs %q",
				k, a.Owner(k), b.Owner(k))
		}
		if a.Owner(k) != a.Owner(k) {
			t.Fatalf("owner of %s is not stable", k)
		}
	}
}

// Duplicate and empty members collapse instead of double-weighting.
func TestNewDeduplicates(t *testing.T) {
	r := New([]string{"a", "b", "a", "", "b"}, 8)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.members; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("members = %v", got)
	}
}

// The distribution bound the design relies on: with DefaultVirtualNodes
// every member's share of a large key population stays within ±35% of
// the uniform share. (The bound is loose enough to be stable across
// hash functions but tight enough to catch a broken vnode projection,
// which lands everything on one member.)
func TestDistributionBounds(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("replica-%d:8075", i)
		}
		r := New(members, 0)
		const total = 20000
		counts := map[string]int{}
		for _, k := range keys(total) {
			counts[r.Owner(k)]++
		}
		mean := float64(total) / float64(n)
		for m, c := range counts {
			if ratio := float64(c) / mean; ratio < 0.65 || ratio > 1.35 {
				t.Errorf("%d members: %s owns %d keys (%.2fx the uniform share)", n, m, c, ratio)
			}
		}
		if len(counts) != n {
			t.Errorf("%d members: only %d received keys", n, len(counts))
		}
	}
}

// Removing a member moves only the keys it owned; every other key keeps
// its owner. This is what keeps the surviving replicas' caches warm
// through a dropout.
func TestWithoutMovesOnlyOrphanedKeys(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	full := New(members, 0)
	reduced := full.Without("c:1")
	if reduced.Len() != 3 {
		t.Fatalf("reduced Len = %d, want 3", reduced.Len())
	}
	moved, orphaned := 0, 0
	for _, k := range keys(5000) {
		before, after := full.Owner(k), reduced.Owner(k)
		if before == "c:1" {
			orphaned++
			if after == "c:1" {
				t.Fatalf("key %s still owned by removed member", k)
			}
			continue
		}
		if before != after {
			moved++
			t.Errorf("key %s moved %q -> %q though its owner survived", k, before, after)
		}
	}
	if orphaned == 0 {
		t.Fatal("no keys were owned by the removed member; test is vacuous")
	}
	if moved > 0 {
		t.Errorf("%d surviving-owner keys moved", moved)
	}
}

// Owners returns distinct members in preference order, starting with
// the owner; asking for more members than exist returns them all.
func TestOwnersPreferenceOrder(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1"}
	r := New(members, 0)
	for _, k := range keys(200) {
		all := r.Owners(k, 0)
		if len(all) != 3 {
			t.Fatalf("Owners(%s, 0) = %v, want all 3", k, all)
		}
		if all[0] != r.Owner(k) {
			t.Fatalf("Owners(%s)[0] = %q, Owner = %q", k, all[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range all {
			if seen[m] {
				t.Fatalf("Owners(%s) repeats %q: %v", k, m, all)
			}
			seen[m] = true
		}
		// The fallback order is consistent with the reduced ring: when the
		// owner drops out, the next preferred member is the new owner.
		if next := r.Without(all[0]).Owner(k); next != all[1] {
			t.Fatalf("key %s: Owners[1] = %q but post-dropout owner = %q", k, all[1], next)
		}
	}
}

// Empty and single-member rings behave.
func TestDegenerateRings(t *testing.T) {
	empty := New(nil, 0)
	if got := empty.Owner("k"); got != "" {
		t.Errorf(`empty ring Owner = %q, want ""`, got)
	}
	if got := empty.Owners("k", 2); len(got) != 0 {
		t.Errorf("empty ring Owners = %v", got)
	}
	one := New([]string{"solo:1"}, 4)
	for _, k := range keys(50) {
		if one.Owner(k) != "solo:1" {
			t.Fatalf("single-member ring routed %s elsewhere", k)
		}
	}
	if got := one.Without("solo:1").Owner("k"); got != "" {
		t.Errorf("ring minus its only member still owns: %q", got)
	}
}

func BenchmarkOwner(b *testing.B) {
	members := make([]string, 8)
	for i := range members {
		members[i] = fmt.Sprintf("replica-%d:8075", i)
	}
	r := New(members, 0)
	ks := keys(1024)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(ks[rng.Intn(len(ks))])
	}
}

func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ member, want string }{
		{"127.0.0.1:8075", "http://127.0.0.1:8075"},
		{"localhost:8075", "http://localhost:8075"},
		{"http://10.0.0.1:8075", "http://10.0.0.1:8075"},
		{"https://replica.example:443", "https://replica.example:443"},
		{"replica.example/polora", "http://replica.example/polora"},
		{"localhost:8075/polora", "http://localhost:8075/polora"},
	} {
		if got := BaseURL(tc.member); got != tc.want {
			t.Errorf("BaseURL(%q) = %q, want %q", tc.member, got, tc.want)
		}
	}
}
