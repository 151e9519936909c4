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
// An entry keeps its blob's verified digest, and also the policy set
// decoded from exactly its blob, but only once that blob has been
// decoded a second time while resident: a decoded set is about 1.5× its
// blob and full of pointers for the GC to scan, so a fingerprint read
// once (an upload diffed once, say) keeps just its bytes.
type blobLRU struct {
	cap   int
	bytes int        // total length of the resident blobs
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	fp string
	// blobRef.set is nil until retained on the blob's second decode;
	// decoded records that it has been decoded once while resident.
	blobRef
	decoded bool
}

func newBlobLRU(capacity int) *blobLRU {
	return &blobLRU{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns fp's blob, its digest and its retained policy set (nil
// until retained).
func (c *blobLRU) get(fp string) (blobRef, bool) {
	el, ok := c.items[fp]
	if !ok {
		return blobRef{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).blobRef, true
}

// add inserts or refreshes ref's blob and digest and reports how many
// entries were evicted to stay within capacity. A set in ref means the
// caller has already decoded the blob once (a decode-checked disk or
// backend read); the entry starts without one either way, as a refresh
// or an eviction leaves it.
func (c *blobLRU) add(fp string, ref blobRef) (evicted int) {
	if c.cap <= 0 {
		// Disabled cache: without this guard the eviction loop below would
		// immediately evict the entry just inserted while still counting an
		// eviction, turning "no cache" into "cache with 100% miss rate plus
		// eviction noise in the metrics".
		return 0
	}
	e := &lruEntry{fp: fp, blobRef: blobRef{blob: ref.blob, sum: ref.sum}, decoded: ref.set != nil}
	c.bytes += len(e.blob)
	if el, ok := c.items[fp]; ok {
		c.bytes -= len(el.Value.(*lruEntry).blob)
		el.Value = e
		c.order.MoveToFront(el)
		return 0
	}
	c.items[fp] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Remove(c.order.Back()).(*lruEntry)
		delete(c.items, oldest.fp)
		c.bytes -= len(oldest.blob)
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

// reportKey addresses a diff report by the digests of the two blobs it
// compares, in order: the report's bytes are a function of exactly those
// two blobs.
type reportKey [2]digest

type reportEntry struct {
	key  reportKey
	wire []byte // Report.EncodeJSON's bytes
	// domain is the compared policies' domain ID, as the report carries it.
	domain string
}

// reportLRU caches diff reports in least-recently-used order within a
// byte budget on their wire bytes. The Store passes the budget, the
// bytes of the blobs its blobLRU holds, so the reports never outweigh
// the blobs they were computed from and a disabled blob cache caches no
// reports. It is not safe for concurrent use; the Store serializes
// access under its mutex.
type reportLRU struct {
	bytes int        // total length of the cached wire bytes
	order *list.List // front = most recently used
	items map[reportKey]*list.Element
}

func newReportLRU() *reportLRU {
	return &reportLRU{order: list.New(), items: make(map[reportKey]*list.Element)}
}

func (c *reportLRU) get(k reportKey) (*reportEntry, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*reportEntry), true
}

// add caches a report under k, evicting the least recently used reports
// until the cache fits in limit bytes. A report larger than limit is not
// cached.
func (c *reportLRU) add(k reportKey, wire []byte, domain string, limit int) {
	if limit <= 0 || len(wire) > limit {
		return
	}
	if el, ok := c.items[k]; ok {
		// A concurrent miss computed the same report first.
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&reportEntry{key: k, wire: wire, domain: domain})
	c.bytes += len(wire)
	c.trim(limit)
}

// trim evicts the least recently used reports until the cache fits in
// limit bytes.
func (c *reportLRU) trim(limit int) {
	for c.bytes > limit {
		oldest := c.order.Remove(c.order.Back()).(*reportEntry)
		delete(c.items, oldest.key)
		c.bytes -= len(oldest.wire)
	}
}
