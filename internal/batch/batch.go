// Package batch defines the wire format of POST /v1/batch: one request
// carrying a mixed array of extract and diff items, answered as a stream
// of per-item frames in input order, with Content-Type ContentType.
//
// A frame starts with one JSON header line. A successful item's header
// is followed by exactly that many raw payload bytes and a newline:
//
//	{"index":0,"op":"extract","status":200,"result":N}
//	<N payload bytes>
//
// The payload is EXACTLY the single-item wire format: an extract item
// carries the bytes `polora export` writes and a diff item the bytes
// `polora diff -json` prints. It never passes through a JSON encoder,
// so nothing can re-compact, escape or re-encode it. A failed item is
// its header line alone: no result, and an error envelope with the
// stable code its single-item request would have answered.
//
// result holds the payload's length, a number, so readers of the
// earlier format fail closed: that format carried the payload
// base64-encoded in result, as a string. An earlier client meets a
// number where it wants a string and fails with a type error, and this
// package's reader does the same on an earlier server's string; neither
// records a status-200 item with an empty payload. A client also
// refuses a response whose Content-Type is not ContentType. polora and
// polorad must therefore be upgraded together.
//
// The package is shared by the server handler (WriteItem) and the CLI
// batch client (Reader) so the two cannot drift. The server marshals
// only the small header and writes the payload bytes after it. The
// client decodes each header line in one pass on a jsonread.Reader,
// without reflection, then reads the payload from the same buffered
// reader into a buffer that grows only as bytes arrive. After the last
// frame it reads the stream to its end, so the connection goes back to
// the transport's pool and the next request reuses it.
package batch

import "fmt"

// Item operations.
const (
	// OpExtract serves one fingerprint's policy blob (POST /v1/extract
	// semantics).
	OpExtract = "extract"
	// OpDiff compares two fingerprints (POST /v1/diff semantics).
	OpDiff = "diff"
)

// DefaultMaxItems is the documented per-request item cap enforced by
// the server (and pre-enforced by the client's chunker). A request with
// more items fails whole with code batch_too_large before any item
// runs; clients split large workloads into multiple requests.
const DefaultMaxItems = 256

// Item is one operation in a batch request.
type Item struct {
	// Op is OpExtract or OpDiff.
	Op string `json:"op"`
	// Fingerprint addresses the policy blob of an extract item.
	Fingerprint string `json:"fingerprint,omitempty"`
	// A and B address the compared revisions of a diff item.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Domain optionally asserts the check domain, with the semantics of
	// the single-item endpoints.
	Domain string `json:"domain,omitempty"`
}

// Validate reports whether the item is well-formed for its operation.
func (it Item) Validate() error {
	switch it.Op {
	case OpExtract:
		if it.Fingerprint == "" {
			return fmt.Errorf("extract item missing fingerprint")
		}
		if it.A != "" || it.B != "" {
			return fmt.Errorf("extract item carries diff fields a/b")
		}
	case OpDiff:
		if it.A == "" || it.B == "" {
			return fmt.Errorf("diff item missing a or b")
		}
		if it.Fingerprint != "" {
			return fmt.Errorf("diff item carries extract field fingerprint")
		}
	default:
		return fmt.Errorf("unknown op %q (want %q or %q)", it.Op, OpExtract, OpDiff)
	}
	return nil
}

// RouteKey is the fingerprint consistent-hash routing is keyed by: the
// blob an extract serves, or the A side of a diff (the diff runs where
// A's blob lives; B rides along via the peer tier).
func (it Item) RouteKey() string {
	if it.Op == OpDiff {
		return it.A
	}
	return it.Fingerprint
}

// Request is the body of POST /v1/batch.
type Request struct {
	Items []Item `json:"items"`
}

// ItemError mirrors the server's error envelope for one failed item:
// the code field is the same stable Code* vocabulary the single-item
// endpoints use, so a client dispatches identically either way.
type ItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// ItemResult is one item of the response stream.
type ItemResult struct {
	// Index is the item's position in Request.Items. The server emits
	// results in index order; a client merging chunks re-keys by it.
	Index int `json:"index"`
	// Op echoes the item's operation.
	Op string `json:"op"`
	// Status is the HTTP status the single-item endpoint would have
	// answered with (200 on success).
	Status int `json:"status"`
	// Result holds the exact single-item wire bytes on success. On the
	// wire they follow the header line raw, which carries their length.
	Result []byte `json:"result,omitempty"`
	// Error carries the failure envelope when Status is not 200.
	Error *ItemError `json:"error,omitempty"`
}
