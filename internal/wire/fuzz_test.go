package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"tango/internal/types"
)

// FuzzParseSchedule fuzzes the fault-schedule decoder: no input may
// panic, and any accepted schedule must render canonically — its
// String() must reparse to an identical rendering (fixed point), and
// the instantiated injector must honor the decoded trap list without
// crashing.
func FuzzParseSchedule(f *testing.F) {
	f.Add("")
	f.Add("seed=7")
	f.Add("fetch@3=drop")
	f.Add("seed=7;stall=5ms;max=3;fetch@2=drop;load@1=partial;exec~stall=0.25")
	f.Add("query@1=stall,insert~partial=0.01")
	f.Add("stats@9=partial;exec@1=drop;exec@2=drop")
	f.Add("fetch~drop=1;fetch~stall=0;fetch~partial=0.5")
	f.Add(";;,,  ;")
	f.Add("fetch@18446744073709551615=drop")
	f.Add("exec~drop=1e-300")
	// Storage ops share the grammar: one seed string drives wire and
	// disk chaos (bench.SplitSchedule routes wal/page to the store).
	f.Add("wal@7=torn")
	f.Add("page@3=partial")
	f.Add("seed=11;wal@7=torn;page@3=partial;fetch@2=drop")
	f.Add("wal@1=drop;wal@2=drop;page@1=torn")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSchedule(src)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("not a fixed point: %q -> %q", canon, got)
		}
		// Instantiation and a few decisions must never crash.
		inj := s.Injector()
		for op := Op(0); op < numOps; op++ {
			for i := 0; i < 3; i++ {
				d := inj.Decide(op)
				if d.Kind != KindNone && d.Stall <= 0 {
					t.Fatalf("fault with non-positive stall: %+v", d)
				}
			}
		}
	})
}

// FuzzDecodeFrame fuzzes the frame decoder: truncated, oversized, and
// garbage input must return one of the typed frame errors — never
// panic — and anything the decoder accepts must re-encode to the same
// bytes and decode identically through the streaming reader.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(AppendFrame(nil, Frame{Type: MsgHello, Payload: AppendHello(nil)}))
	f.Add(AppendFrame(nil, Frame{Type: MsgExec, Session: 7, Request: 42, Payload: []byte("SELECT 1")}))
	f.Add(AppendFrame(nil, Frame{Type: MsgErr, Request: 1, Payload: AppendRemoteError(nil, RemoteError{Code: CodeOverloaded, Msg: "q", Backoff: 1, Queue: 2})}))
	f.Add(AppendFrame(nil, Frame{Type: MsgFetch, Session: 1, Request: 2, Payload: []byte{1, 2, 3}})[:10])
	f.Add(append(AppendFrame(nil, Frame{Type: MsgOK, Request: 5}), "trailing"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, used, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if used < framePrefixLen+frameHeaderLen || used > len(data) {
			t.Fatalf("impossible consumed count %d for %d input bytes", used, len(data))
		}
		// Accepted frames re-encode to the consumed bytes exactly.
		if enc := AppendFrame(nil, fr); !bytes.Equal(enc, data[:used]) {
			t.Fatalf("re-encode mismatch: %x != %x", enc, data[:used])
		}
		// The streaming reader agrees with the in-memory decoder.
		rf, _, rerr := ReadFrame(bytes.NewReader(data[:used]), nil)
		if rerr != nil {
			t.Fatalf("ReadFrame rejected an accepted frame: %v", rerr)
		}
		if rf.Type != fr.Type || rf.Session != fr.Session || rf.Request != fr.Request || !bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame")
		}
	})
}

// refValue is one value as the per-row reference decoder reads it.
type refValue struct {
	kind types.Kind
	n    int64  // int, date, bool; float bits
	s    string // string
}

// refDecodeBatch is the per-row reference decoder: it walks the batch
// value by value, building every row and string on its own, with no
// slab, no shared string and no preallocation from a claimed count.
func refDecodeBatch(data []byte) ([][]refValue, bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, false
	}
	pos := k
	var rows [][]refValue
	for i := uint64(0); i < n; i++ {
		cnt, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, false
		}
		pos += k
		row := []refValue{}
		for j := uint64(0); j < cnt; j++ {
			if pos >= len(data) {
				return nil, false
			}
			v := refValue{kind: types.Kind(data[pos])}
			pos++
			switch v.kind {
			case types.KindNull:
			case types.KindInt, types.KindDate, types.KindBool:
				if v.n, k = binary.Varint(data[pos:]); k <= 0 {
					return nil, false
				}
				pos += k
			case types.KindFloat:
				if len(data)-pos < 8 {
					return nil, false
				}
				v.n = int64(binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
			case types.KindString:
				l, k := binary.Uvarint(data[pos:])
				if k <= 0 || l > uint64(len(data)-pos-k) {
					return nil, false
				}
				pos += k
				v.s = string(data[pos : pos+int(l)])
				pos += int(l)
			default:
				return nil, false
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, pos == len(data)
}

// sameRows reports whether slab-decoded rows equal the reference rows
// value for value, floats bit for bit.
func sameRows(got []types.Tuple, want [][]refValue) bool {
	if len(got) != len(want) {
		return false
	}
	for i, row := range want {
		if len(got[i]) != len(row) {
			return false
		}
		for j, w := range row {
			v := got[i][j]
			if v.Kind() != w.kind {
				return false
			}
			switch w.kind {
			case types.KindFloat:
				if math.Float64bits(v.AsFloat()) != uint64(w.n) {
					return false
				}
			case types.KindString:
				if v.AsString() != w.s {
					return false
				}
			case types.KindInt, types.KindDate, types.KindBool:
				if v.AsInt() != w.n {
					return false
				}
			}
		}
	}
	return true
}

// FuzzDecodeBatch fuzzes the slab batch decoder: it must accept
// exactly what the per-row reference decoder accepts and decode the
// same values; a hostile row count must be rejected without
// allocating beyond the payload's size; and decoded strings must
// survive the source buffer being overwritten.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBatch(nil, nil))
	f.Add(EncodeBatch(nil, benchRows(3)))
	f.Add(EncodeBatch(nil, []types.Tuple{
		{types.Null, types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Bool(true)},
		{},
		{types.Str(""), types.Date(9862), types.Str("O'Hara\x00")},
	}))
	f.Add(EncodeBatch(nil, benchRows(2))[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		src := append([]byte(nil), data...)
		got, err := DecodeBatchInto(nil, src)
		want, ok := refDecodeBatch(data)
		if (err == nil) != ok {
			t.Fatalf("slab decoder error %v, reference accepts: %v", err, ok)
		}
		if ok {
			for i := range src {
				src[i] = 0xa5
			}
			if !sameRows(got, want) {
				t.Fatalf("slab decode differs from the reference")
			}
		}

		// The same rows under a row count no payload can hold.
		hostile := binary.AppendUvarint(nil, 1<<40)
		if len(data) > 0 {
			if _, k := binary.Uvarint(data); k > 0 {
				hostile = append(hostile, data[k:]...)
			}
		}
		// The fuzzing engine allocates on other goroutines now and then,
		// so the least growth over a few calls is the decoder's own.
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = DecodeBatchInto(nil, hostile)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a batch claiming 2^40 rows was accepted")
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > uint64(len(hostile))+1024 {
			t.Fatalf("rejecting a hostile row count allocated %d bytes for a %d-byte payload", least, len(hostile))
		}
	})
}
