package store

import (
	"testing"

	"policyoracle/internal/policy"
)

func TestBlobLRUEvictsOldest(t *testing.T) {
	c := newBlobLRU(2)
	if n := c.add("a", blobRef{blob: []byte("A")}); n != 0 {
		t.Errorf("evicted %d on first insert", n)
	}
	c.add("b", blobRef{blob: []byte("B")})
	if n := c.add("c", blobRef{blob: []byte("C")}); n != 1 {
		t.Errorf("evicted %d inserting past capacity, want 1", n)
	}
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if ref, ok := c.get("c"); !ok || string(ref.blob) != "C" {
		t.Error("newest entry missing")
	}
	// Refreshing an existing key is not an insert and evicts nothing.
	if n := c.add("b", blobRef{blob: []byte("B2")}); n != 0 || c.len() != 2 {
		t.Errorf("refresh: evicted=%d len=%d", n, c.len())
	}
	if ref, _ := c.get("b"); string(ref.blob) != "B2" {
		t.Error("refresh did not replace the blob")
	}
}

// A disabled cache (capacity <= 0) must store nothing — and, the bug this
// pins: it must not report a phantom eviction for every add.
func TestBlobLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newBlobLRU(capacity)
		if n := c.add("a", blobRef{blob: []byte("A")}); n != 0 {
			t.Errorf("cap=%d: add reported %d evictions, want 0", capacity, n)
		}
		if c.len() != 0 {
			t.Errorf("cap=%d: disabled cache holds %d entries", capacity, c.len())
		}
		if _, ok := c.get("a"); ok {
			t.Errorf("cap=%d: disabled cache returned a hit", capacity)
		}
	}
}

// An entry retains the set decoded from exactly its bytes, and only on
// their second decode: a decode of bytes the entry no longer holds, or
// the first decode after a refresh, retains nothing.
func TestBlobLRURetainsSetOnSecondDecode(t *testing.T) {
	c := newBlobLRU(2)
	blob := []byte("A")
	set := policy.NewProgramPolicies("a")
	retained := func() *policy.ProgramPolicies {
		t.Helper()
		ref, ok := c.get("a")
		if !ok {
			t.Fatal("entry missing")
		}
		return ref.set
	}
	c.add("a", blobRef{blob: blob})
	c.noteDecode("a", []byte("A"), set) // equal bytes, but not the entry's
	c.noteDecode("a", []byte("A"), set)
	if retained() != nil {
		t.Error("retained a set decoded from another copy of the bytes")
	}
	c.noteDecode("a", blob, set)
	if retained() != nil {
		t.Error("retained a set on the first decode")
	}
	c.noteDecode("a", blob, set)
	if retained() != set {
		t.Error("second decode did not retain the set")
	}
	c.add("a", blobRef{blob: blob, set: set}) // refresh after a decode-checked read
	if retained() != nil {
		t.Error("refresh kept the retained set")
	}
	c.noteDecode("a", blob, set)
	if retained() != set {
		t.Error("a decode-checked refresh did not count as the first decode")
	}
}
