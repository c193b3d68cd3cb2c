// Package server exposes an AFRAID store as a concurrent network block
// service: a length-prefixed binary protocol over TCP with request IDs
// for out-of-order completion, a bounded worker pool dispatching into
// the store's stripe-lock pool, write coalescing, per-request
// deadlines, backpressure, graceful drain, and expvar metrics. The
// matching Client speaks the same protocol.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"afraid/internal/bufpool"
	"afraid/internal/core"
	"afraid/internal/obs"
)

// Handshake: the client opens with Magic; the server answers with
// Magic, the store capacity (u64), and the frame payload limit (u32).
// Everything on the wire is big-endian.
const Magic = "AFRDBLK1"

// handshakeReplyLen is len(Magic) + capacity + maxPayload.
const handshakeReplyLen = len(Magic) + 8 + 4

// Op identifies a request operation.
type Op uint8

// Request operations.
const (
	// OpRead returns Length bytes starting at Off.
	OpRead Op = 1
	// OpWrite stores Data at Off. Adjacent pipelined writes may be
	// coalesced server-side; each request ID is still acknowledged.
	OpWrite Op = 2
	// OpFlush makes the whole array redundant (parity point).
	OpFlush Op = 3
	// OpStat returns the served store's named counters (see Stat).
	OpStat Op = 4
	// OpScrub makes the stripes covering [Off, Off+Length) redundant.
	OpScrub Op = 5
)

func (o Op) valid() bool { return o >= OpRead && o <= OpScrub }

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpFlush:
		return "FLUSH"
	case OpStat:
		return "STAT"
	case OpScrub:
		return "SCRUB"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status is a response disposition.
type Status uint8

// Response statuses.
const (
	// StatusOK means the operation completed; READ/STAT carry data.
	StatusOK Status = 0
	// StatusBusy means the server's in-flight window is full; retry.
	StatusBusy Status = 1
	// StatusBadRequest means the frame was well-formed but the request
	// invalid (range outside capacity, unknown op).
	StatusBadRequest Status = 2
	// StatusIO is a store or device error; the payload holds a message.
	StatusIO Status = 3
	// StatusDataLoss marks reads of bytes lost in the AFRAID exposure
	// window (failed disk in an unredundant stripe).
	StatusDataLoss Status = 4
	// StatusTimeout means the per-request deadline expired.
	StatusTimeout Status = 5
	// StatusShutdown means the server is draining and rejected the
	// request.
	StatusShutdown Status = 6
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusBusy:
		return "ERR_BUSY"
	case StatusBadRequest:
		return "ERR_BAD_REQUEST"
	case StatusIO:
		return "ERR_IO"
	case StatusDataLoss:
		return "ERR_DATA_LOSS"
	case StatusTimeout:
		return "ERR_TIMEOUT"
	case StatusShutdown:
		return "ERR_SHUTDOWN"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Frame layout. Both directions are a u32 body length followed by the
// body; the length never includes its own four bytes.
//
//	request body:  op(1) id(8) off(8) length(4) data(length, WRITE only)
//	response body: op(1) status(1) id(8) data(rest)
const (
	reqHeaderLen  = 1 + 8 + 8 + 4
	respHeaderLen = 1 + 1 + 8
)

// DefaultMaxPayload bounds the data carried by one frame (WRITE data or
// READ length). Larger client I/Os are split into multiple requests.
const DefaultMaxPayload = 1 << 20

// Protocol errors.
var (
	// ErrFrameTooLarge rejects a frame whose declared body exceeds the
	// payload limit.
	ErrFrameTooLarge = errors.New("server: frame exceeds payload limit")
	// ErrTruncatedFrame rejects a body shorter than its fixed header or
	// than its declared data length.
	ErrTruncatedFrame = errors.New("server: truncated frame")
	// ErrBadMagic rejects a handshake that is not an AFRAID block
	// service.
	ErrBadMagic = errors.New("server: bad protocol magic")
)

// Request is one client operation.
type Request struct {
	Op     Op
	ID     uint64
	Off    int64
	Length uint32 // READ: bytes wanted; WRITE: len(Data); SCRUB: range length
	Data   []byte // WRITE payload
}

// Response completes one request ID.
type Response struct {
	Op     Op
	Status Status
	ID     uint64
	Data   []byte // READ data, STAT payload, or an error message

	// pooled marks Data as borrowed from bufpool: the connection writer
	// returns it after the frame is serialized. Set only for OpRead
	// responses, which are never shared between frame IDs.
	pooled bool

	// frame, when non-nil, is the pooled buffer backing Data (set by the
	// client's read loop, which reads response frames into bufpool
	// buffers instead of allocating per frame). release returns it.
	frame []byte
}

// release returns the response's pooled frame buffer, if any, to the
// pool. The caller must be done with Data, which aliases the frame.
func (r *Response) release() {
	if r.frame != nil {
		bufpool.Put(r.frame)
		r.frame, r.Data = nil, nil
	}
}

// AppendRequest appends the framed request (length prefix included) to
// dst and returns the extended slice.
func AppendRequest(dst []byte, r *Request) []byte {
	body := reqHeaderLen + len(r.Data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Off))
	dst = binary.BigEndian.AppendUint32(dst, r.Length)
	return append(dst, r.Data...)
}

// DecodeRequest parses a request body (the bytes after the length
// prefix). It rejects truncated bodies, oversized payloads, unknown
// ops, offsets that overflow int64, and length/data mismatches. The
// returned Data aliases body.
func DecodeRequest(body []byte, maxPayload uint32) (Request, error) {
	var r Request
	if len(body) < reqHeaderLen {
		return r, fmt.Errorf("%w: request body %d bytes, need %d", ErrTruncatedFrame, len(body), reqHeaderLen)
	}
	r.Op = Op(body[0])
	r.ID = binary.BigEndian.Uint64(body[1:])
	off := binary.BigEndian.Uint64(body[9:])
	r.Length = binary.BigEndian.Uint32(body[17:])
	data := body[reqHeaderLen:]
	if !r.Op.valid() {
		return r, fmt.Errorf("server: unknown op %d", uint8(r.Op))
	}
	if off > math.MaxInt64 {
		return r, fmt.Errorf("server: offset %d overflows int64", off)
	}
	r.Off = int64(off)
	// Length bounds an allocation for READ/WRITE; for SCRUB it is only
	// a range length and may cover gigabytes.
	if (r.Op == OpRead || r.Op == OpWrite) && r.Length > maxPayload {
		return r, fmt.Errorf("%w: length %d > limit %d", ErrFrameTooLarge, r.Length, maxPayload)
	}
	if r.Op == OpWrite {
		if uint32(len(data)) != r.Length {
			return r, fmt.Errorf("%w: WRITE declares %d data bytes, carries %d", ErrTruncatedFrame, r.Length, len(data))
		}
		r.Data = data
	} else if len(data) != 0 {
		return r, fmt.Errorf("server: %v carries %d unexpected data bytes", r.Op, len(data))
	}
	return r, nil
}

// readFrame reads one length-prefixed body, applying the payload limit
// before allocating.
func readFrame(br *bufio.Reader, maxPayload uint32) ([]byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(br, pfx[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(pfx[:])
	if n > maxPayload+uint32(reqHeaderLen)+uint32(respHeaderLen) {
		return nil, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
		}
		return nil, err
	}
	return body, nil
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(br *bufio.Reader, maxPayload uint32) (Request, error) {
	body, err := readFrame(br, maxPayload)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(body, maxPayload)
}

// AppendResponse appends the framed response (length prefix included)
// to dst and returns the extended slice.
func AppendResponse(dst []byte, r *Response) []byte {
	body := respHeaderLen + len(r.Data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(r.Op), byte(r.Status))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	return append(dst, r.Data...)
}

// appendResponseHeader appends the frame length prefix and fixed
// response header for r — declaring, but not appending, r.Data, which
// the caller sends as its own scatter-gather vector element.
func appendResponseHeader(dst []byte, r *Response) []byte {
	body := respHeaderLen + len(r.Data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(r.Op), byte(r.Status))
	return binary.BigEndian.AppendUint64(dst, r.ID)
}

// DecodeResponse parses a response body (the bytes after the length
// prefix). The returned Data aliases body.
func DecodeResponse(body []byte, maxPayload uint32) (Response, error) {
	var r Response
	if len(body) < respHeaderLen {
		return r, fmt.Errorf("%w: response body %d bytes, need %d", ErrTruncatedFrame, len(body), respHeaderLen)
	}
	r.Op = Op(body[0])
	r.Status = Status(body[1])
	r.ID = binary.BigEndian.Uint64(body[2:])
	r.Data = body[respHeaderLen:]
	return r, nil
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(br *bufio.Reader, maxPayload uint32) (Response, error) {
	body, err := readFrame(br, maxPayload)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(body, maxPayload)
}

// STAT payload: a self-describing snapshot of named counters.
//
//	tag(1) count(2) then count × [nameLen(1) name(nameLen) value(8)]
//
// Names are layer-prefixed snake_case ("core.dirty_stripes",
// "tier.promotes", "server.read_p50"); signed values travel as two's
// complement and bools as 1 or 0. A new counter is a new entry, so the
// format never needs a version bump. Earlier releases sent fixed-field
// payloads that began with a version byte of 1 to 4; statTag lies
// outside that range, so each side rejects the other's payload as
// unknown instead of misreading it. STAT ignores the request's Length.
const (
	statTag       = 0x80
	statHeaderLen = 1 + 2
	// statMinEntry is the smallest entry: a one-byte name.
	statMinEntry = 1 + 1 + 8
)

// Stat is a decoded STAT snapshot: layer-prefixed counter names mapped
// to their values.
type Stat map[string]uint64

// ModeString names the served store's redundancy mode.
func (st Stat) ModeString() string { return core.Mode(st["core.mode"]).String() }

// appendStat encodes fields as a STAT payload. Each name must be 1 to
// 255 bytes long, as obs.AppendFields names are.
func appendStat(dst []byte, fields []obs.Field) []byte {
	dst = append(dst, statTag)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(fields)))
	for _, f := range fields {
		dst = append(dst, byte(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = binary.BigEndian.AppendUint64(dst, f.Uint64())
	}
	return dst
}

// decodeStat parses a STAT payload. It rejects an unknown tag, a count
// the payload cannot hold (before allocating for it), truncated
// entries, trailing bytes, empty names and duplicate names.
func decodeStat(b []byte) (Stat, error) {
	if len(b) < statHeaderLen {
		return nil, fmt.Errorf("%w: stat payload %d bytes, need %d", ErrTruncatedFrame, len(b), statHeaderLen)
	}
	if b[0] != statTag {
		return nil, fmt.Errorf("server: unknown stat format %#x", b[0])
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	b = b[statHeaderLen:]
	if n*statMinEntry > len(b) {
		return nil, fmt.Errorf("%w: stat declares %d entries in %d bytes", ErrTruncatedFrame, n, len(b))
	}
	st := make(Stat, n)
	for i := 0; i < n; i++ {
		if len(b) < statMinEntry {
			return nil, fmt.Errorf("%w: stat entry %d", ErrTruncatedFrame, i)
		}
		l := int(b[0])
		if l == 0 {
			return nil, fmt.Errorf("server: stat entry %d has an empty name", i)
		}
		if len(b) < 1+l+8 {
			return nil, fmt.Errorf("%w: stat entry %d", ErrTruncatedFrame, i)
		}
		name := string(b[1 : 1+l])
		if _, dup := st[name]; dup {
			return nil, fmt.Errorf("server: stat entry %q repeated", name)
		}
		st[name] = binary.BigEndian.Uint64(b[1+l:])
		b = b[1+l+8:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("server: stat payload has %d trailing bytes", len(b))
	}
	return st, nil
}
