package store

import (
	"container/list"

	"policyoracle/internal/policy"
)

// blobLRU is a fixed-capacity LRU over policy blobs, keyed by
// fingerprint. A capacity <= 0 disables the cache: add stores nothing
// (and reports no evictions) and get never hits. It is not safe for
// concurrent use; the Store serializes access under its mutex.
//
// An entry also keeps the policy set decoded from exactly its blob, but
// only once that blob has been decoded a second time while resident: a
// decoded set is about 1.5× its blob and full of pointers for the GC to
// scan, so a fingerprint read once (an upload diffed once, say) keeps
// just its bytes.
type blobLRU struct {
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	fp   string
	blob []byte
	// decoded records that blob has been decoded once while resident;
	// set is the decoded policy set, retained on the second decode.
	decoded bool
	set     *policy.ProgramPolicies
}

func newBlobLRU(capacity int) *blobLRU {
	return &blobLRU{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns fp's blob and its retained policy set (nil until retained).
func (c *blobLRU) get(fp string) ([]byte, *policy.ProgramPolicies, bool) {
	el, ok := c.items[fp]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*lruEntry)
	return e.blob, e.set, true
}

// add inserts or refreshes a blob and reports how many entries were
// evicted to stay within capacity. decoded says whether the caller has
// already decoded blob once (a validated disk or backend read). A
// refresh drops the entry's retained set, as eviction does.
func (c *blobLRU) add(fp string, blob []byte, decoded bool) (evicted int) {
	if c.cap <= 0 {
		// Disabled cache: without this guard the eviction loop below would
		// immediately evict the entry just inserted while still counting an
		// eviction, turning "no cache" into "cache with 100% miss rate plus
		// eviction noise in the metrics".
		return 0
	}
	e := &lruEntry{fp: fp, blob: blob, decoded: decoded}
	if el, ok := c.items[fp]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return 0
	}
	c.items[fp] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).fp)
		evicted++
	}
	return evicted
}

// noteDecode records that set was decoded from blob, as returned by get or
// by the read that filled fp's entry; blob decoded, so it is not empty.
// The set is retained when this is the second decode of the entry's own
// bytes; a blob that has since been refreshed or evicted changes nothing.
func (c *blobLRU) noteDecode(fp string, blob []byte, set *policy.ProgramPolicies) {
	el, ok := c.items[fp]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry)
	if len(e.blob) != len(blob) || &e.blob[0] != &blob[0] || e.set != nil {
		return
	}
	if e.decoded {
		e.set = set
	}
	e.decoded = true
}

func (c *blobLRU) len() int { return c.order.Len() }
