package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/meta"
	"tango/internal/types"
)

// TestFrameRoundTrip is the property test: any frame with a valid
// message type survives Append → Decode and Append → ReadFrame
// unchanged.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(session uint32, request uint64, n uint16) bool {
		f := Frame{
			Type:    byte(1 + rng.Intn(int(msgTypeEnd)-1)),
			Session: session,
			Request: request,
			Payload: make([]byte, int(n)%4096),
		}
		rng.Read(f.Payload)
		enc := AppendFrame(nil, f)

		got, used, err := DecodeFrame(enc)
		if err != nil || used != len(enc) {
			t.Logf("DecodeFrame: used=%d err=%v", used, err)
			return false
		}
		if got.Type != f.Type || got.Session != f.Session || got.Request != f.Request || !bytes.Equal(got.Payload, f.Payload) {
			return false
		}

		rf, _, err := ReadFrame(bytes.NewReader(enc), nil)
		if err != nil {
			t.Logf("ReadFrame: %v", err)
			return false
		}
		return rf.Type == f.Type && rf.Session == f.Session && rf.Request == f.Request && bytes.Equal(rf.Payload, f.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameDecodeErrors: truncated, oversized, and garbage frames
// must surface the typed errors, never panic.
func TestFrameDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: MsgExec, Session: 3, Request: 9, Payload: []byte("SQL")})

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrameTruncated},
		{"short prefix", valid[:2], ErrFrameTruncated},
		{"cut body", valid[:len(valid)-1], ErrFrameTruncated},
		{"header only prefix", binary.BigEndian.AppendUint32(nil, 4), ErrBadFrame},
		{"oversized", binary.BigEndian.AppendUint32(nil, MaxFrameSize+1), ErrFrameTooLarge},
		{"zero msg type", AppendFrame(nil, Frame{Type: 0}), ErrBadFrame},
		{"unknown msg type", AppendFrame(nil, Frame{Type: msgTypeEnd}), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame: err=%v, want %v", err, tc.want)
			}
			_, _, err := ReadFrame(bytes.NewReader(tc.data), nil)
			if tc.name == "empty" {
				// A clean hangup at a frame boundary is io.EOF, not a
				// truncation: the connection loop distinguishes them.
				if err != io.EOF {
					t.Fatalf("ReadFrame(empty): err=%v, want io.EOF", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame: err=%v, want %v", err, tc.want)
			}
		})
	}
}

// TestHello covers the handshake codec.
func TestHello(t *testing.T) {
	v, err := CheckHello(AppendHello(nil))
	if err != nil || v != ProtocolVersion {
		t.Fatalf("CheckHello(AppendHello): v=%d err=%v", v, err)
	}
	if _, err := CheckHello([]byte("NOPE\x01")); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("bad magic: %v", err)
	}
	bad := AppendHello(nil)
	bad[len(bad)-1] = ProtocolVersion + 1
	if _, err := CheckHello(bad); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("version skew: %v", err)
	}
	if _, err := CheckHello(nil); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("empty hello: %v", err)
	}
}

// TestRemoteErrorRoundTrip: every error code survives the MsgErr
// payload codec with all its fields.
func TestRemoteErrorRoundTrip(t *testing.T) {
	cases := []RemoteError{
		{Code: CodeGeneric, Msg: "engine: no such table FOO"},
		{Code: CodeOverloaded, Msg: "queue full", Backoff: 5 * time.Millisecond, Queue: 17},
		{Code: CodeFault, Msg: "injected", Op: OpFetch, Kind: KindDrop, Index: 3},
		{Code: CodeShutdown, Msg: "draining"},
		{Code: CodeGeneric, Msg: ""},
	}
	for _, e := range cases {
		got, err := DecodeRemoteError(AppendRemoteError(nil, e))
		if err != nil {
			t.Fatalf("decode %+v: %v", e, err)
		}
		if got != e {
			t.Fatalf("round trip: got %+v, want %+v", got, e)
		}
	}
	for _, bad := range [][]byte{nil, {byte(CodeGeneric)}, AppendRemoteError(nil, cases[0])[:4]} {
		if _, err := DecodeRemoteError(bad); err == nil {
			t.Fatalf("DecodeRemoteError(%x) accepted garbage", bad)
		}
	}
}

// TestChargeCtx: a canceled context cuts a simulated stall short
// instead of sleeping it out.
func TestChargeCtx(t *testing.T) {
	lat := Latency{RoundTrip: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	lat.ChargeCtx(ctx, 0)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ChargeCtx slept %v under a canceled context", d)
	}
	// The zero latency is free on both paths.
	Latency{}.ChargeCtx(context.Background(), 1<<20)
	Latency{}.Charge(1 << 20)
}

// TestReplyRoundTrip: every reply shape survives the frame it is
// encoded into in place (SealFrame), and the fetch flag separates end of stream
// from an (even empty) batch.
func TestReplyRoundTrip(t *testing.T) {
	schema := types.Schema{Cols: []types.Column{{Name: "K", Kind: types.KindInt}}}
	batch := EncodeBatch(nil, []types.Tuple{{types.Int(4)}})
	for _, c := range []struct {
		typ byte
		rep Reply
	}{
		{MsgOpenSession, Reply{Session: 9, Token: 1<<64 - 1}},
		{MsgCloseSession, Reply{N: 2}},
		{MsgExec, Reply{N: -1}},
		{MsgLoad, Reply{N: 1 << 40}},
		{MsgQuery, Reply{Cursor: 12, Schema: schema}},
		{MsgFetch, Reply{Batch: batch}},
		{MsgFetch, Reply{}},
		{MsgSchema, Reply{Schema: schema}},
		{MsgStats, Reply{Stats: &meta.TableStats{Cardinality: 3}}},
	} {
		frame := SealFrame(AppendReply(AppendFrame(nil, Frame{Type: MsgOK, Session: 1, Request: 2}), c.typ, c.rep), 0)
		f, used, err := DecodeFrame(frame)
		if err != nil || used != len(frame) || f.Type != MsgOK || f.Session != 1 || f.Request != 2 {
			t.Fatalf("%s: frame %+v used %d err %v", MsgName(c.typ), f, used, err)
		}
		got, err := DecodeReply(c.typ, f.Payload)
		if err != nil {
			t.Fatalf("%s: %v", MsgName(c.typ), err)
		}
		if got.N != c.rep.N || got.Cursor != c.rep.Cursor || got.Session != c.rep.Session || got.Token != c.rep.Token ||
			got.Schema.String() != c.rep.Schema.String() || !bytes.Equal(got.Batch, c.rep.Batch) || (got.Batch == nil) != (c.rep.Batch == nil) ||
			(c.rep.Stats != nil && got.Stats.Cardinality != c.rep.Stats.Cardinality) {
			t.Fatalf("%s: %+v round-tripped to %+v", MsgName(c.typ), c.rep, got)
		}
	}
	req := Request{Type: MsgLoad, Hdr: []byte{1}, Table: "T", Seq: 3, Payload: batch}
	f, _, err := DecodeFrame(SealFrame(AppendRequest(AppendFrame(nil, Frame{Type: MsgLoad, Session: 5, Request: 6}), req), 0))
	if err != nil || f.Type != MsgLoad || f.Session != 5 || f.Request != 6 {
		t.Fatalf("request frame %+v: %v", f, err)
	}
	if got, err := DecodeRequest(f.Type, f.Payload); err != nil || !sameRequest(got, req) {
		t.Fatalf("request %+v round-tripped to %+v (%v)", req, got, err)
	}
}

// TestDecodeRequestPrefetchBound: a Query over MaxPrefetch rows per
// batch is refused typed at decode.
func TestDecodeRequestPrefetchBound(t *testing.T) {
	ok := AppendRequest(nil, Request{Type: MsgQuery, SQL: "S", Prefetch: MaxPrefetch})
	if r, err := DecodeRequest(MsgQuery, ok); err != nil || r.Prefetch != MaxPrefetch {
		t.Fatalf("MaxPrefetch: %+v %v", r, err)
	}
	over := AppendRequest(nil, Request{Type: MsgQuery, SQL: "S", Prefetch: 1 << 60})
	var pe *PrefetchError
	if _, err := DecodeRequest(MsgQuery, over); !errors.As(err, &pe) || pe.Prefetch != 1<<60 {
		t.Fatalf("prefetch 1<<60: %v, want *PrefetchError", err)
	}
}
