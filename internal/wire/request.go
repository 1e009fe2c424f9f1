package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"tango/internal/meta"
	"tango/internal/types"
)

// Request is one client → server operation. The in-process backend
// hands it to the server as is; the TCP transport carries it as the
// payload of a frame whose message type is Type, encoded by
// AppendRequest and decoded by DecodeRequest. Each message type uses
// only its own fields; the payload layouts (trace hdr = AppendBytes of
// a trace header, possibly empty) are:
//
//	MsgOpenSession    (empty)
//	MsgResumeSession  session id (uvarint) + resume token (fixed64)
//	MsgCloseSession   (empty)
//	MsgExec           trace hdr + sql (rest)
//	MsgQuery          trace hdr + prefetch (uvarint) + sql (rest)
//	MsgFetch          trace hdr + cursor id (uvarint) + seq (varint)
//	MsgCloseCursor    cursor id (uvarint)
//	MsgLoad           trace hdr + load seq (varint) + table (AppendString) + batch (rest)
//	MsgInsert         trace hdr + table (AppendString) + batch (rest)
//	MsgStats          trace hdr + buckets (varint) + table (rest)
//	MsgSchema         table (rest)
//	MsgRegisterTemp   table (rest)
//	MsgForgetTemp     table (rest)
type Request struct {
	Type     byte   // the request's message type (MsgExec, MsgQuery, ...)
	Hdr      []byte // trace header; empty means no trace
	SQL      string // Exec, Query
	Table    string // Load, Insert, Stats, Schema, RegisterTemp, ForgetTemp
	Prefetch int    // Query: rows per fetch batch; <= 0 means DefaultPrefetch
	Cursor   uint64 // Fetch, CloseCursor: the session's cursor id
	Seq      int64  // Fetch: batch sequence number (0 = next); Load: dedup sequence
	Buckets  int    // Stats: histogram buckets if statistics are computed
	// Payload is the encoded batch of a Load or Insert. For a Fetch it
	// is the caller's buffer the reply batch is encoded into; it is
	// not sent.
	Payload []byte
	// Pipelined asks a Fetch to return its reply's wire delay in
	// Reply.Delay instead of sleeping it. Not sent: over TCP the
	// socket itself is the delay.
	Pipelined bool
	Session   uint32 // ResumeSession
	Token     uint64 // ResumeSession
}

// Reply is the answer to one Request, carried by a MsgOK frame and
// encoded by AppendReply / DecodeReply for the request's type:
//
//	MsgOpenSession    session id (uvarint) + resume token (fixed64)
//	MsgCloseSession   temp tables collected (uvarint)
//	MsgExec, MsgLoad, MsgInsert   rows affected (varint)
//	MsgQuery          cursor id (uvarint) + result schema (EncodeSchema)
//	MsgFetch          flag byte (0 = end of stream, 1 = batch follows) + batch (EncodeBatch)
//	MsgStats          table statistics (AppendTableStats)
//	MsgSchema         table schema (EncodeSchema)
//	others            (empty)
//
// A failed request is answered by a MsgErr frame carrying a
// RemoteError instead.
type Reply struct {
	N      int64            // Exec, Load, Insert: rows; CloseSession: temp tables collected
	Cursor uint64           // Query: the session's cursor id
	Schema types.Schema     // Query, Schema
	Batch  []byte           // Fetch: the encoded batch; nil at end of stream
	Stats  *meta.TableStats // Stats
	// Delay is a pipelined Fetch's wire delay, left for the caller to
	// sleep. Not sent.
	Delay   time.Duration
	Session uint32 // OpenSession
	Token   uint64 // OpenSession
}

// MaxPrefetch caps the rows one fetch batch may hold. The server sizes
// a cursor's batch buffer from the prefetch a Query asks for, so a
// larger request is refused rather than allocated.
const MaxPrefetch = 1 << 16

// PrefetchError rejects a Query asking for more than MaxPrefetch rows
// per batch.
type PrefetchError struct {
	Prefetch uint64
}

// Error renders the rejection.
func (e *PrefetchError) Error() string {
	return fmt.Sprintf("wire: prefetch %d exceeds the maximum of %d rows per batch", e.Prefetch, MaxPrefetch)
}

// AppendRequest appends the payload encoding of r (see Request) to dst.
func AppendRequest(dst []byte, r Request) []byte {
	switch r.Type {
	case MsgResumeSession:
		dst = binary.AppendUvarint(dst, uint64(r.Session))
		return binary.BigEndian.AppendUint64(dst, r.Token)
	case MsgExec:
		return append(AppendBytes(dst, r.Hdr), r.SQL...)
	case MsgQuery:
		dst = binary.AppendUvarint(AppendBytes(dst, r.Hdr), uint64(max(r.Prefetch, 0)))
		return append(dst, r.SQL...)
	case MsgFetch:
		dst = binary.AppendUvarint(AppendBytes(dst, r.Hdr), r.Cursor)
		return binary.AppendVarint(dst, r.Seq)
	case MsgCloseCursor:
		return binary.AppendUvarint(dst, r.Cursor)
	case MsgLoad:
		dst = binary.AppendVarint(AppendBytes(dst, r.Hdr), r.Seq)
		return append(AppendString(dst, r.Table), r.Payload...)
	case MsgInsert:
		return append(AppendString(AppendBytes(dst, r.Hdr), r.Table), r.Payload...)
	case MsgStats:
		dst = binary.AppendVarint(AppendBytes(dst, r.Hdr), int64(r.Buckets))
		return append(dst, r.Table...)
	case MsgSchema, MsgRegisterTemp, MsgForgetTemp:
		return append(dst, r.Table...)
	}
	return dst
}

// DecodeRequest decodes the payload of a frame of type t. Byte fields
// of the result (Hdr, Payload) alias payload. Malformed input yields
// an ErrBadFrame-wrapped error, and a Query over MaxPrefetch a
// *PrefetchError; the decoder never panics.
func DecodeRequest(t byte, payload []byte) (Request, error) {
	r, d := Request{Type: t}, decoder{b: payload}
	switch t {
	case MsgExec, MsgQuery, MsgFetch, MsgLoad, MsgInsert, MsgStats:
		r.Hdr = d.bytes("trace header")
	}
	switch t {
	case MsgOpenSession, MsgCloseSession:
	case MsgResumeSession:
		r.Session, r.Token = d.uint32("session id"), d.fixed64("resume token")
	case MsgExec:
		r.SQL = string(d.rest())
	case MsgQuery:
		p := d.uvarint("prefetch")
		if p > MaxPrefetch {
			return Request{}, &PrefetchError{Prefetch: p}
		}
		r.Prefetch, r.SQL = int(p), string(d.rest())
	case MsgFetch:
		r.Cursor, r.Seq = d.uvarint("cursor id"), d.varint("seq")
	case MsgCloseCursor:
		r.Cursor = d.uvarint("cursor id")
	case MsgLoad:
		r.Seq, r.Table, r.Payload = d.varint("load seq"), d.str("table"), d.rest()
	case MsgInsert:
		r.Table, r.Payload = d.str("table"), d.rest()
	case MsgStats:
		r.Buckets, r.Table = int(d.varint("buckets")), string(d.rest())
	case MsgSchema, MsgRegisterTemp, MsgForgetTemp:
		r.Table = string(d.rest())
	default:
		return Request{}, fmt.Errorf("%w: %s is not a request", ErrBadFrame, MsgName(t))
	}
	if err := d.end(MsgName(t)); err != nil {
		return Request{}, err
	}
	return r, nil
}

// AppendReply appends the payload encoding of rep, the answer to a
// request of type t (see Reply), to dst.
func AppendReply(dst []byte, t byte, rep Reply) []byte {
	switch t {
	case MsgOpenSession:
		dst = binary.AppendUvarint(dst, uint64(rep.Session))
		return binary.BigEndian.AppendUint64(dst, rep.Token)
	case MsgCloseSession:
		return binary.AppendUvarint(dst, uint64(max(rep.N, 0)))
	case MsgExec, MsgLoad, MsgInsert:
		return binary.AppendVarint(dst, rep.N)
	case MsgQuery:
		return EncodeSchema(binary.AppendUvarint(dst, rep.Cursor), rep.Schema)
	case MsgFetch:
		if rep.Batch == nil {
			return append(dst, 0)
		}
		return append(append(dst, 1), rep.Batch...)
	case MsgStats:
		return AppendTableStats(dst, rep.Stats)
	case MsgSchema:
		return EncodeSchema(dst, rep.Schema)
	}
	return dst
}

// DecodeReply decodes the MsgOK payload answering a request of type t.
// A fetch reply's Batch aliases payload.
func DecodeReply(t byte, payload []byte) (Reply, error) {
	var rep Reply
	var err error
	d := decoder{b: payload}
	switch t {
	case MsgOpenSession:
		rep.Session, rep.Token = d.uint32("session id"), d.fixed64("resume token")
	case MsgCloseSession:
		rep.N = int64(d.uvarint("collected count"))
	case MsgExec, MsgLoad, MsgInsert:
		rep.N = d.varint("row count")
	case MsgQuery:
		rep.Cursor = d.uvarint("cursor id")
		rep.Schema, err = decodeSchema(d.rest())
	case MsgFetch:
		switch d.byte("fetch flag") {
		case 0:
		case 1:
			rep.Batch = d.rest()
		default:
			d.fail("fetch flag")
		}
	case MsgStats:
		rep.Stats, err = DecodeTableStats(d.rest())
	case MsgSchema:
		rep.Schema, err = decodeSchema(d.rest())
	}
	if err != nil {
		return Reply{}, err
	}
	if err := d.end(MsgName(t) + " reply"); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// decodeSchema decodes a payload that is exactly one EncodeSchema.
func decodeSchema(b []byte) (types.Schema, error) {
	s, _, err := DecodeSchema(b)
	return s, err
}

// SealFrame patches the length prefix of the frame that starts at
// dst[start:], after its payload was appended in place behind an
// AppendFrame of an empty payload: requests and replies are encoded
// straight into the frame buffer.
func SealFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-framePrefixLen))
	return dst
}

// decoder reads a payload front to back. The first malformed field
// sticks: later reads return zero values and end reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrBadFrame, what)
	}
	d.b = nil
}

func (d *decoder) uvarint(what string) uint64 {
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *decoder) varint(what string) int64 {
	v, k := binary.Varint(d.b)
	if k <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *decoder) uint32(what string) uint32 {
	v := d.uvarint(what)
	if v > math.MaxUint32 {
		d.fail(what)
		return 0
	}
	return uint32(v)
}

func (d *decoder) fixed64(what string) uint64 {
	if len(d.b) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) byte(what string) byte {
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// bytes reads a length-prefixed block (AppendBytes), aliasing the input.
func (d *decoder) bytes(what string) []byte {
	n := d.uvarint(what)
	if n > uint64(len(d.b)) {
		d.fail(what)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// str reads a length-prefixed string (AppendString).
func (d *decoder) str(what string) string { return string(d.bytes(what)) }

// rest consumes and returns everything left.
func (d *decoder) rest() []byte {
	v := d.b
	d.b = d.b[len(d.b):]
	return v
}

// end reports the first malformed field, or trailing bytes.
func (d *decoder) end(what string) error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: %d trailing %s bytes", ErrBadFrame, len(d.b), what)
	}
	return d.err
}
