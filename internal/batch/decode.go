package batch

import (
	"bufio"
	"bytes"
	"io"

	"policyoracle/internal/jsonread"
)

// The known keys of an envelope and of its error, in field order.
var (
	resultKeys = []string{"index", "op", "status", "result", "error"}
	errorKeys  = []string{"code", "message", "detail"}
)

const (
	keyIndex, keyOp, keyStatus, keyResult, keyError = 0, 1, 2, 3, 4
	keyCode, keyMessage, keyDetail                  = 0, 1, 2
)

// decodeResult decodes one envelope line in one pass. It accepts exactly
// the lines json.Unmarshal would decode into an ItemResult, with the
// same result, except a line whose object names a known key twice
// (jsonread.ErrDuplicateKey). A top-level null is the zero ItemResult.
// The result shares no memory with line, so the line's buffer can be
// reused.
func decodeResult(line []byte) (ItemResult, error) {
	var res ItemResult
	r := jsonread.New(line)
	if r.Open('{') {
		var seen uint64
		for r.More('}') {
			switch r.Key(resultKeys, &seen) {
			case keyIndex:
				res.Index = r.Int(res.Index)
			case keyOp:
				res.Op = r.String(res.Op)
			case keyStatus:
				res.Status = r.Int(res.Status)
			case keyResult:
				res.Result = r.Bytes()
			case keyError:
				res.Error = decodeError(&r)
			default:
				r.Skip()
			}
		}
	}
	if r.End(); r.Err() != nil {
		return ItemResult{}, r.Err()
	}
	return res, nil
}

// decodeError decodes an envelope's error: null is a nil pointer.
func decodeError(r *jsonread.Reader) *ItemError {
	if !r.Open('{') {
		return nil
	}
	e := new(ItemError)
	var seen uint64
	for r.More('}') {
		switch r.Key(errorKeys, &seen) {
		case keyCode:
			e.Code = r.String(e.Code)
		case keyMessage:
			e.Message = r.String(e.Message)
		case keyDetail:
			e.Detail = r.String(e.Detail)
		default:
			r.Skip()
		}
	}
	return e
}

// stream reads the envelopes of one /v1/batch response, one line at a
// time into one reused buffer. Blank lines are skipped, and the last
// line may lack its newline. Each other line must hold exactly one
// envelope: where a json.Decoder would read a second value after it, or
// join an envelope spread over lines, decodeResult fails.
type stream struct {
	br   *bufio.Reader
	line []byte
}

// newStream reads r through a 64 KiB buffer: an extract envelope runs to
// hundreds of KB, and a larger buffer reads it in fewer calls.
func newStream(r io.Reader) *stream {
	return &stream{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next envelope. At the end of the stream it returns
// io.EOF, and a transport failure returns that failure.
func (s *stream) next() (ItemResult, error) {
	for {
		s.line = s.line[:0]
		var err error
		for {
			var frag []byte
			frag, err = s.br.ReadSlice('\n')
			s.line = append(s.line, frag...)
			if err != bufio.ErrBufferFull {
				break
			}
		}
		if err != nil && err != io.EOF {
			return ItemResult{}, err
		}
		if len(bytes.TrimLeft(s.line, " \t\r\n")) > 0 {
			return decodeResult(s.line)
		}
		if err != nil {
			return ItemResult{}, err
		}
	}
}

// drain reads what follows the last envelope, up to a bound, so that
// closing the body lets the transport reuse the connection: an HTTP
// response body closed before its end costs the connection.
func (s *stream) drain() {
	_, _ = io.CopyN(io.Discard, s.br, 4<<10) // a failure costs only the connection
}
