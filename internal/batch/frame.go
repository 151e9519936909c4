package batch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"policyoracle/internal/jsonread"
)

// ContentType is the media type of a /v1/batch response. The client
// refuses a response of any other type.
const ContentType = "application/x-policyoracle-batch"

// header is a frame's JSON line: an ItemResult whose result is the
// length of the payload that follows. A failed item has no result, so
// its header is the envelope line earlier servers wrote for it.
type header struct {
	Index  int        `json:"index"`
	Op     string     `json:"op"`
	Status int        `json:"status"`
	Result int        `json:"result,omitempty"`
	Error  *ItemError `json:"error,omitempty"`
}

// WriteItem writes res as one frame: its header line and, when res
// carries a payload, the payload bytes as they are and a newline.
func WriteItem(w io.Writer, res ItemResult) error {
	line, err := json.Marshal(header{res.Index, res.Op, res.Status, len(res.Result), res.Error})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if len(res.Result) == 0 {
		_, err = w.Write(line)
		return err
	}
	for _, b := range [][]byte{line, res.Result, {'\n'}} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// The known keys of a header and of its error, in field order.
var (
	headerKeys = []string{"index", "op", "status", "result", "error"}
	errorKeys  = []string{"code", "message", "detail"}
)

const (
	keyIndex, keyOp, keyStatus, keyResult, keyError = 0, 1, 2, 3, 4
	keyCode, keyMessage, keyDetail                  = 0, 1, 2
)

// decodeHeader decodes one header line in one pass. It accepts exactly
// the lines json.Unmarshal would decode into a header, with the same
// result, except a line whose object names a known key twice
// (jsonread.ErrDuplicateKey). A top-level null is the zero header. The
// header shares no memory with line, so the line's buffer can be reused.
func decodeHeader(line []byte) (header, error) {
	var h header
	r := jsonread.New(line)
	if r.Open('{') {
		var seen uint64
		for r.More('}') {
			switch r.Key(headerKeys, &seen) {
			case keyIndex:
				h.Index = r.Int(h.Index)
			case keyOp:
				h.Op = r.String(h.Op)
			case keyStatus:
				h.Status = r.Int(h.Status)
			case keyResult:
				h.Result = r.Int(h.Result)
			case keyError:
				h.Error = decodeError(&r)
			default:
				r.Skip()
			}
		}
	}
	if r.End(); r.Err() != nil {
		return header{}, r.Err()
	}
	return h, nil
}

// decodeError decodes a header's error: null is a nil pointer.
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

// payloadPresize bounds the payload buffer allocated before the
// payload's bytes arrive. A payload up to this size is read into one
// buffer of its exact size; a longer one grows with the bytes read, so a
// claimed length never sizes an allocation on its own.
const payloadPresize = 1 << 20

// Reader reads the frames of one /v1/batch response. A header line must
// hold exactly one header: where a json.Decoder would read a second
// value after it, or join a header spread over lines, decodeHeader
// fails. A frame carries a payload exactly when its status is 200, and
// its newline must follow the payload.
type Reader struct {
	br   *bufio.Reader
	line []byte // the current header line, reused
}

// NewReader reads r through a 64 KiB buffer.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next item. At the end of the stream it returns
// io.EOF, a stream that ends inside a frame io.ErrUnexpectedEOF, and a
// transport failure that failure.
func (r *Reader) Next() (ItemResult, error) {
	if err := r.readLine(); err != nil {
		return ItemResult{}, err
	}
	h, err := decodeHeader(r.line)
	if err != nil {
		return ItemResult{}, err
	}
	res := ItemResult{Index: h.Index, Op: h.Op, Status: h.Status, Error: h.Error}
	switch {
	case h.Status == http.StatusOK && h.Result <= 0:
		return ItemResult{}, fmt.Errorf("item %d: status 200 with result %d, want a payload length", h.Index, h.Result)
	case h.Status != http.StatusOK && h.Result != 0:
		return ItemResult{}, fmt.Errorf("item %d: status %d with a payload", h.Index, h.Status)
	case h.Result > 0:
		if res.Result, err = r.payload(h.Result); err != nil {
			return ItemResult{}, err
		}
	}
	return res, nil
}

// readLine reads one header line, newline included, into r.line.
func (r *Reader) readLine() error {
	r.line = r.line[:0]
	for {
		frag, err := r.br.ReadSlice('\n')
		r.line = append(r.line, frag...)
		switch {
		case err == nil:
			return nil
		case err == io.EOF && len(r.line) > 0:
			return io.ErrUnexpectedEOF
		case err != bufio.ErrBufferFull:
			return err
		}
	}
}

// payload reads an n-byte payload and the newline after it.
func (r *Reader) payload(n int) ([]byte, error) {
	b := make([]byte, 0, min(n, payloadPresize))
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), len(b)))
		}
		end := min(n, cap(b))
		if _, err := io.ReadFull(r.br, b[len(b):end]); err != nil {
			return nil, noEOF(err)
		}
		b = b[:end]
	}
	c, err := r.br.ReadByte()
	if err != nil {
		return nil, noEOF(err)
	}
	if c != '\n' {
		return nil, errors.New("payload not followed by a newline")
	}
	return b, nil
}

// noEOF reports a stream that ended inside a frame.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// drain reads what follows the last frame, up to a bound, so that
// closing the body lets the transport reuse the connection: an HTTP
// response body closed before its end costs the connection.
func (r *Reader) drain() {
	_, _ = io.CopyN(io.Discard, r.br, 4<<10) // a failure costs only the connection
}
