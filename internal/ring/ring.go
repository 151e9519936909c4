// Package ring is a consistent-hash ring over polorad replica
// addresses, keyed by store fingerprint. It decides which replica owns
// a content address so that every node of a distributed tier — and the
// batch client routing requests into it — derives the same placement
// from the same member list, with no coordinator.
//
// Each member is projected onto the ring at VirtualNodes pseudo-random
// points (SHA-256 of "member#i"), and a key is owned by the member
// whose first point follows the key's hash clockwise. Virtual nodes
// smooth the per-member share toward 1/N, and removing a member
// (Without, for dropout handling) moves only the keys that member
// owned: everything else keeps its owner, which is what keeps peer
// caches warm across a replica failure.
//
// Members are opaque strings compared byte-for-byte; the ring is
// deterministic in the member *set*, not its order, so differently
// ordered -peers flags on different replicas still agree. Rings are
// immutable and safe for concurrent use.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// VirtualNodes is the per-member point count. 128 points keep the member
// shares within a few percent of uniform at single-digit member counts
// (asserted by the distribution-bound tests) while keeping a 3-node ring
// under 400 points to search. Every replica and client must agree on it,
// so it is not configurable.
const VirtualNodes = 128

// Ring is an immutable consistent-hash ring.
type Ring struct {
	members []string // sorted, deduplicated
	hashes  []uint64 // sorted ring points
	owners  []int    // owners[i] = index into members for hashes[i]
}

// New builds a ring over the given members with VirtualNodes points per
// member. Duplicate members are collapsed; an empty member list yields an
// empty ring whose Owner returns "".
func New(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		hashes:  make([]uint64, 0, len(uniq)*VirtualNodes),
		owners:  make([]int, 0, len(uniq)*VirtualNodes),
	}
	type point struct {
		hash  uint64
		owner int
	}
	points := make([]point, 0, len(uniq)*VirtualNodes)
	for i, m := range uniq {
		for v := 0; v < VirtualNodes; v++ {
			points = append(points, point{hashString(fmt.Sprintf("%s#%d", m, v)), i})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		// A hash collision between two members' points is resolved by
		// member order so the ring stays deterministic in the set.
		return r.members[points[a].owner] < r.members[points[b].owner]
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.owners = append(r.owners, p.owner)
	}
	return r
}

// hashString maps a string to a ring position. SHA-256 (truncated to 64
// bits) rather than a cheaper hash: ring lookups are per-request, not
// per-instruction, and the uniformity is what the distribution bounds
// rely on.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Len reports the number of distinct members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member that owns key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.ownerIndices(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return r.members[owners[0]]
}

// Owners returns up to n distinct members in the key's preference
// order: the owner first, then the members whose points follow it
// clockwise. n <= 0 (or n > Len) means every member. This is the
// fallback order a peer fetch walks when the owner has dropped out.
func (r *Ring) Owners(key string, n int) []string {
	owners := r.ownerIndices(key, n)
	out := make([]string, len(owners))
	for i, idx := range owners {
		out[i] = r.members[idx]
	}
	return out
}

// ownerIndices walks the ring clockwise from the key's position,
// collecting up to n distinct member indices.
func (r *Ring) ownerIndices(key string, n int) []int {
	if len(r.hashes) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := hashString(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		owner := r.owners[(start+i)%len(r.hashes)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

// Without returns a ring over the member set minus m — the ring a
// client continues on after declaring m dropped. Removing a member
// that was never present returns an equivalent ring.
func (r *Ring) Without(m string) *Ring {
	rest := make([]string, 0, len(r.members))
	for _, mem := range r.members {
		if mem != m {
			rest = append(rest, mem)
		}
	}
	return New(rest)
}

// BaseURL returns the HTTP base URL for a member string: members are
// conventionally bare host:port, so "http://" is prepended unless the
// member already starts with a URL scheme (text before the first "://"
// that holds none of ":/.", which rules out host:port and path forms).
func BaseURL(member string) string {
	if i := strings.Index(member, "://"); i >= 0 && !strings.ContainsAny(member[:i], ":/.") {
		return member
	}
	return "http://" + member
}
