package batch

import (
	"encoding/json"
	"io"
)

// DecodeHeader exposes the client's header decoder to the package's
// external tests.
var DecodeHeader = decodeHeader

// Header is a frame's header line, for json.Unmarshal to decode into.
type Header = header

// ReadStream reads n items from r with the Reader postChunk runs.
func ReadStream(r io.Reader, n int) ([]ItemResult, error) {
	rd := NewReader(r)
	out := make([]ItemResult, 0, n)
	for len(out) < n {
		res, err := rd.Next()
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RefReadStream is the json.Decoder loop of an earlier client, which
// read NDJSON envelopes whose result held the payload base64-encoded.
// It stands for the earlier readers in the mixed-version tests.
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
