package store

import (
	"context"
	"slices"
	"testing"
)

// TestLRU drives the one LRU type the store's caches run on: each step
// puts, gets or peeks at a key or evicts the oldest entry, and the cache must then hold
// exactly the keys listed, most recently used first, with their values
// and the sizes summed.
func TestLRU(t *testing.T) {
	type step struct {
		op        string // "put", "get", "peek" or "evict"
		key       string
		val, size int
		// want is the resident keys, most recently used first, and
		// bytes their total size.
		want  []string
		bytes int
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"insert", []step{
			{op: "put", key: "a", val: 1, size: 10, want: []string{"a"}, bytes: 10},
			{op: "put", key: "b", val: 2, size: 5, want: []string{"b", "a"}, bytes: 15},
		}},
		{"refresh replaces value and size", []step{
			{op: "put", key: "a", val: 1, size: 10, want: []string{"a"}, bytes: 10},
			{op: "put", key: "b", val: 2, size: 5, want: []string{"b", "a"}, bytes: 15},
			{op: "put", key: "a", val: 3, size: 2, want: []string{"a", "b"}, bytes: 7},
		}},
		{"eviction order follows use", []step{
			{op: "put", key: "a", val: 1, size: 1, want: []string{"a"}, bytes: 1},
			{op: "put", key: "b", val: 2, size: 2, want: []string{"b", "a"}, bytes: 3},
			{op: "put", key: "c", val: 3, size: 4, want: []string{"c", "b", "a"}, bytes: 7},
			{op: "get", key: "a", want: []string{"a", "c", "b"}, bytes: 7},
			{op: "evict", want: []string{"a", "c"}, bytes: 5},
			{op: "get", key: "b", want: []string{"a", "c"}, bytes: 5},
			{op: "evict", want: []string{"a"}, bytes: 1},
			{op: "evict", want: nil, bytes: 0},
		}},
		{"peek keeps the order", []step{
			{op: "put", key: "a", val: 1, size: 1, want: []string{"a"}, bytes: 1},
			{op: "put", key: "b", val: 2, size: 2, want: []string{"b", "a"}, bytes: 3},
			{op: "peek", key: "a", want: []string{"b", "a"}, bytes: 3},
			{op: "peek", key: "c", want: []string{"b", "a"}, bytes: 3},
			{op: "evict", want: []string{"b"}, bytes: 2},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newLRU[string, int]()
			vals := map[string]int{}
			for i, s := range c.steps {
				switch s.op {
				case "put":
					l.put(s.key, s.val, s.size)
					vals[s.key] = s.val
				case "get", "peek":
					get := l.get
					if s.op == "peek" {
						get = l.peek
					}
					v, ok := get(s.key)
					if ok != slices.Contains(s.want, s.key) || ok && v != vals[s.key] {
						t.Fatalf("step %d: %s(%q) = %d, %v", i, s.op, s.key, v, ok)
					}
				case "evict":
					l.evictOldest()
				}
				var got []string
				for el := l.order.Front(); el != nil; el = el.Next() {
					got = append(got, el.Value.(*lruEntry[string, int]).key)
				}
				if !slices.Equal(got, s.want) || len(l.items) != len(s.want) || l.len() != len(s.want) || l.bytes != s.bytes {
					t.Fatalf("step %d (%s %q): resident %v (%d in the map), %d bytes; want %v, %d bytes",
						i, s.op, s.key, got, len(l.items), l.bytes, s.want, s.bytes)
				}
				for _, k := range got {
					if e := l.items[k].Value.(*lruEntry[string, int]); e.val != vals[k] {
						t.Fatalf("step %d: %q holds %d, want %d", i, k, e.val, vals[k])
					}
				}
			}
		})
	}
}

// A disabled cache (-cache 0, CacheEntries < 0) holds nothing, caches no
// report, and — the bug this pins — counts no phantom eviction for each
// blob it declines to hold.
func TestBlobLRUDisabled(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CacheEntries: -1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fps, _ := putFour(t, s)
	for i := 0; i < 2; i++ {
		for _, fp := range fps {
			if _, err := s.DiffWire(context.Background(), fps[0], fp); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.mu.Lock()
	resident, reports := s.cache.len(), s.reports.len()
	s.mu.Unlock()
	if st := s.Stats(); st.Evictions != 0 || st.MemHits != 0 || st.ReportHits != 0 || resident != 0 || reports != 0 {
		t.Errorf("disabled cache: %d blobs and %d reports resident, %+v; want none, and no evictions or hits",
			resident, reports, st)
	}
}
