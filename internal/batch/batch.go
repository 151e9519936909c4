// Package batch defines the wire format of POST /v1/batch: one request
// carrying a mixed array of extract and diff items, answered as a
// newline-delimited JSON stream of per-item envelopes in input order.
//
// The payload bytes inside each ItemResult are EXACTLY the single-item
// wire formats — an extract item carries the bytes `polora export`
// writes and a diff item the bytes `polora diff -json` prints. They
// travel base64-encoded (Go's []byte JSON encoding) because embedding
// them as raw JSON would let the envelope encoder re-compact and
// HTML-escape them, silently breaking the byte-identity contract the
// oracle's clients rely on.
//
// The package is shared by the server handler and the CLI batch client
// so the two cannot drift.
//
// The server writes each envelope with json.Encoder. The client reads
// the stream one line at a time into one reused buffer and decodes each
// line in one pass on a jsonread.Reader, without reflection. It accepts
// exactly the lines json.Unmarshal would decode into an ItemResult, with
// the same result, except a line that names a known key twice. An
// unescaped payload is base64-decoded straight from the line. Framing
// is NDJSON: one envelope per line, and blank lines are skipped. A line
// with anything after its envelope, or an envelope spread over several
// lines, is an error. After the last envelope the client reads the
// stream to its end, so the connection goes back to the transport's
// pool and the next request reuses it.
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

// ItemResult is one line of the response stream.
type ItemResult struct {
	// Index is the item's position in Request.Items. The server emits
	// results in index order; a client merging chunks re-keys by it.
	Index int `json:"index"`
	// Op echoes the item's operation.
	Op string `json:"op"`
	// Status is the HTTP status the single-item endpoint would have
	// answered with (200 on success).
	Status int `json:"status"`
	// Result holds the exact single-item wire bytes on success,
	// base64-encoded in transit.
	Result []byte `json:"result,omitempty"`
	// Error carries the failure envelope when Status is not 200.
	Error *ItemError `json:"error,omitempty"`
}
