package store

import "container/list"

// lru is a map in least-recently-used order whose entries carry a size,
// with the running total of the sizes resident. It keeps no bound of its
// own: its owner evicts the oldest entries until the bound it keeps holds.
// The Store runs three: policy blobs by fingerprint, bounded by entry
// count; diff reports by blob digests, bounded by the blobs' bytes; and
// revision records by library name, bounded by the blobs' entry count.
// It is not safe for concurrent use; the Store serializes access under
// its mutex.
type lru[K comparable, V any] struct {
	bytes int        // total size of the resident entries
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int
}

func newLRU[K comparable, V any]() *lru[K, V] {
	return &lru[K, V]{order: list.New(), items: make(map[K]*list.Element)}
}

// get returns k's value and makes it the most recently used entry.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// peek returns k's value without making it more recently used.
func (c *lru[K, V]) peek(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// put makes v, of the given size, k's value and the most recently used
// entry, replacing the value and size k had.
func (c *lru[K, V]) put(k K, v V, size int) {
	c.bytes += size
	if el, ok := c.items[k]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.bytes -= e.size
		e.val, e.size = v, size
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v, size: size})
}

// evictOldest drops the least recently used entry; there must be one.
func (c *lru[K, V]) evictOldest() {
	e := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
	delete(c.items, e.key)
	c.bytes -= e.size
}

func (c *lru[K, V]) len() int { return c.order.Len() }

// reportKey addresses a diff report by the digests of the two blobs it
// compares, in order: the report's bytes are a function of exactly those
// two blobs.
type reportKey [2]digest
