// Framed binary protocol for the real TCP transport. Every request
// and reply crossing a socket is one length-prefixed frame carrying a
// message type, a multiplexing session ID (many sessions share one
// connection), and a request ID that matches replies to their
// requests when several are in flight. The payload is a Request or a
// Reply in the codec of request.go, which reuses the batch, schema,
// statistics and trace-header codecs of this package: the in-process
// path hands the server the same Request struct.
//
// Frame layout (protocol version 1), integers big-endian:
//
//	bytes 0-3   uint32  length of the remainder (1+4+8+len(payload))
//	byte  4     message type
//	bytes 5-8   uint32  session ID (0 = connection scope)
//	bytes 9-16  uint64  request ID (echoed verbatim in the reply)
//	bytes 17-   payload
//
// The first frame on a connection must be MsgHello carrying the magic
// and protocol version; the server answers MsgHelloOK or closes. The
// decoder returns typed errors — never panics — for truncated,
// oversized, and garbage input; FuzzDecodeFrame holds it to that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// ProtocolVersion is the framed-protocol version spoken by this build.
const ProtocolVersion = 1

// Magic opens every MsgHello payload, so a server can reject a
// non-TANGO peer on the first frame instead of mis-parsing garbage.
const Magic = "TNGO"

// frameHeaderLen is the fixed per-frame overhead after the length
// prefix: type (1) + session (4) + request (8).
const frameHeaderLen = 13

// framePrefixLen is the length prefix itself.
const framePrefixLen = 4

// MaxFrameSize caps one frame's encoded remainder. Bulk-load payloads
// are the largest legitimate frames; anything past this is a corrupt
// length prefix or a hostile peer, and the connection is cut rather
// than the allocation attempted.
const MaxFrameSize = 64 << 20

// Message types. Requests flow client → server; MsgOK/MsgErr flow
// back with the request's ID. Each request's payload and its MsgOK
// reply are laid out by the Request/Reply codec (request.go); MsgErr
// carries a RemoteError.
const (
	MsgHello byte = iota + 1 // payload: AppendHello
	MsgHelloOK
	MsgOpenSession
	MsgResumeSession
	MsgCloseSession
	MsgExec
	MsgQuery
	MsgFetch
	MsgCloseCursor
	MsgLoad
	MsgInsert
	MsgStats
	MsgSchema
	MsgRegisterTemp
	MsgForgetTemp
	MsgOK
	MsgErr
	msgTypeEnd
)

var msgNames = [...]string{
	0:                "invalid",
	MsgHello:         "hello",
	MsgHelloOK:       "hello-ok",
	MsgOpenSession:   "open-session",
	MsgResumeSession: "resume-session",
	MsgCloseSession:  "close-session",
	MsgExec:          "exec",
	MsgQuery:         "query",
	MsgFetch:         "fetch",
	MsgCloseCursor:   "close-cursor",
	MsgLoad:          "load",
	MsgInsert:        "insert",
	MsgStats:         "stats",
	MsgSchema:        "schema",
	MsgRegisterTemp:  "register-temp",
	MsgForgetTemp:    "forget-temp",
	MsgOK:            "ok",
	MsgErr:           "err",
}

// MsgName renders a message type for diagnostics.
func MsgName(t byte) string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", t)
}

// MsgOp maps a request message type to the fault-injection op it
// represents on the wire (ok reports false for messages that are not
// fault-injectable: handshake, session plumbing, replies). The chaos
// proxy uses this to drive the PR-4 schedule grammar against real
// connections.
func MsgOp(t byte) (Op, bool) {
	switch t {
	case MsgExec:
		return OpExec, true
	case MsgQuery:
		return OpQuery, true
	case MsgFetch:
		return OpFetch, true
	case MsgLoad:
		return OpLoad, true
	case MsgInsert:
		return OpInsert, true
	case MsgStats:
		return OpStats, true
	}
	return 0, false
}

// Frame is one decoded protocol frame. Payload aliases the decode
// input; callers that retain it past the next read must copy.
type Frame struct {
	Type    byte
	Session uint32
	Request uint64
	Payload []byte
}

// Typed frame-decode failures. The connection layer treats any of
// them as fatal for the connection (framing is lost), but they are
// ordinary errors — garbage input must never panic.
var (
	// ErrFrameTruncated reports input shorter than its length prefix
	// promises (or shorter than a prefix at all).
	ErrFrameTruncated = errors.New("wire: truncated frame")
	// ErrFrameTooLarge reports a length prefix past MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds max size")
	// ErrBadFrame reports a structurally invalid frame (zero or unknown
	// message type, impossible remainder length).
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrBadHandshake reports a Hello with the wrong magic or an
	// unsupported protocol version.
	ErrBadHandshake = errors.New("wire: bad handshake")
)

// AppendFrame appends the encoding of f to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	rest := frameHeaderLen + len(f.Payload)
	dst = binary.BigEndian.AppendUint32(dst, uint32(rest))
	dst = append(dst, f.Type)
	dst = binary.BigEndian.AppendUint32(dst, f.Session)
	dst = binary.BigEndian.AppendUint64(dst, f.Request)
	return append(dst, f.Payload...)
}

// DecodeFrame decodes one frame from the front of data, returning the
// bytes consumed. The returned payload aliases data.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < framePrefixLen {
		return Frame{}, 0, ErrFrameTruncated
	}
	rest := binary.BigEndian.Uint32(data)
	if rest > MaxFrameSize {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, rest)
	}
	if rest < frameHeaderLen {
		return Frame{}, 0, fmt.Errorf("%w: remainder %d shorter than header", ErrBadFrame, rest)
	}
	if len(data) < framePrefixLen+int(rest) {
		return Frame{}, 0, ErrFrameTruncated
	}
	body := data[framePrefixLen : framePrefixLen+int(rest)]
	f := Frame{
		Type:    body[0],
		Session: binary.BigEndian.Uint32(body[1:5]),
		Request: binary.BigEndian.Uint64(body[5:13]),
		Payload: body[13:],
	}
	if f.Type == 0 || f.Type >= msgTypeEnd {
		return Frame{}, 0, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, f.Type)
	}
	return f, framePrefixLen + int(rest), nil
}

// ReadFrame reads one frame from r, reusing buf (grown as needed) for
// the frame body; the returned payload aliases the returned buffer.
// io.EOF is returned untouched at a clean frame boundary so the
// connection loop can distinguish "peer hung up" from "peer died
// mid-frame" (ErrFrameTruncated).
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var prefix [framePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrFrameTruncated
		}
		return Frame{}, buf, err
	}
	rest := binary.BigEndian.Uint32(prefix[:])
	if rest > MaxFrameSize {
		return Frame{}, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, rest)
	}
	if rest < frameHeaderLen {
		return Frame{}, buf, fmt.Errorf("%w: remainder %d shorter than header", ErrBadFrame, rest)
	}
	if cap(buf) < int(rest) {
		buf = make([]byte, rest)
	}
	buf = buf[:rest]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = ErrFrameTruncated
		}
		return Frame{}, buf, err
	}
	f := Frame{
		Type:    buf[0],
		Session: binary.BigEndian.Uint32(buf[1:5]),
		Request: binary.BigEndian.Uint64(buf[5:13]),
		Payload: buf[13:],
	}
	if f.Type == 0 || f.Type >= msgTypeEnd {
		return Frame{}, buf, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, f.Type)
	}
	return f, buf, nil
}

// AppendHello appends the MsgHello payload: magic + version.
func AppendHello(dst []byte) []byte {
	dst = append(dst, Magic...)
	return append(dst, ProtocolVersion)
}

// CheckHello validates a MsgHello payload and returns the peer's
// protocol version.
func CheckHello(payload []byte) (byte, error) {
	if len(payload) != len(Magic)+1 || string(payload[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadHandshake)
	}
	v := payload[len(Magic)]
	if v != ProtocolVersion {
		return 0, fmt.Errorf("%w: protocol version %d, want %d", ErrBadHandshake, v, ProtocolVersion)
	}
	return v, nil
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte block (the trace-header
// envelope: an empty block means "no trace").
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// --- typed errors across the wire ---

// ErrCode classifies a MsgErr payload so typed errors survive the
// socket: the client transport reconstructs the same error types the
// in-process path surfaces, keeping the retry classifiers working
// unchanged over TCP.
type ErrCode byte

const (
	// CodeGeneric is a plain (non-retryable) server error: semantic SQL
	// failures, schema mismatches.
	CodeGeneric ErrCode = iota + 1
	// CodeOverloaded is an admission-control shed; the payload carries
	// the server-suggested backoff the client honors before retrying.
	CodeOverloaded
	// CodeFault is an injected wire fault (chaos schedules running
	// server-side) re-surfaced typed.
	CodeFault
	// CodeShutdown is a statement rejected or canceled because the
	// server is draining.
	CodeShutdown
)

// RemoteError is the decoded form of a MsgErr payload.
type RemoteError struct {
	Code    ErrCode
	Msg     string
	Backoff time.Duration // CodeOverloaded: server-suggested retry delay
	Queue   int64         // CodeOverloaded: queue depth at shed time
	Op      Op            // CodeFault
	Kind    FaultKind     // CodeFault
	Index   int64         // CodeFault
}

// Error renders the remote failure.
func (e *RemoteError) Error() string {
	switch e.Code {
	case CodeOverloaded:
		return fmt.Sprintf("wire: server overloaded (retry after %v): %s", e.Backoff, e.Msg)
	case CodeShutdown:
		return "wire: server shutting down: " + e.Msg
	default:
		return e.Msg
	}
}

// AppendRemoteError appends the MsgErr payload encoding of e.
func AppendRemoteError(dst []byte, e RemoteError) []byte {
	dst = append(dst, byte(e.Code))
	dst = binary.AppendUvarint(dst, uint64(e.Backoff))
	dst = binary.AppendVarint(dst, e.Queue)
	dst = append(dst, byte(e.Op), byte(e.Kind))
	dst = binary.AppendVarint(dst, e.Index)
	return AppendString(dst, e.Msg)
}

// DecodeRemoteError decodes a MsgErr payload.
func DecodeRemoteError(payload []byte) (RemoteError, error) {
	d := decoder{b: payload}
	e := RemoteError{Code: ErrCode(d.byte("error code"))}
	e.Backoff = time.Duration(d.uvarint("backoff"))
	e.Queue = d.varint("queue depth")
	e.Op, e.Kind = Op(d.byte("op")), FaultKind(d.byte("fault kind"))
	e.Index = d.varint("fault index")
	e.Msg = d.str("error message")
	if err := d.end("error"); err != nil {
		return RemoteError{}, err
	}
	return e, nil
}
