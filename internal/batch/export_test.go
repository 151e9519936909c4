package batch

import (
	"encoding/json"
	"io"
)

// DecodeResult exposes the client's envelope decoder to the package's
// external tests.
var DecodeResult = decodeResult

// ReadStream reads n envelopes from r with the loop postChunk runs.
func ReadStream(r io.Reader, n int) ([]ItemResult, error) {
	s := newStream(r)
	out := make([]ItemResult, 0, n)
	for len(out) < n {
		res, err := s.next()
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RefReadStream is the json.Decoder loop that postChunk's one-pass
// stream replaced, kept unchanged as the reference the differential
// tests compare against.
func RefReadStream(r io.Reader, n int) ([]ItemResult, error) {
	dec := json.NewDecoder(r)
	out := make([]ItemResult, 0, n)
	for len(out) < n {
		var res ItemResult
		if err := dec.Decode(&res); err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
