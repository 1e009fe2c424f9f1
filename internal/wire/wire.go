// Package wire implements the client/server boundary between the
// middleware and the DBMS: batched binary row serialization (every row
// crossing the boundary is really encoded and decoded, as over JDBC)
// and an optional latency model for round trips and bandwidth. The
// batch size is the paper's Oracle "row prefetch" setting.
package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"tango/internal/types"
)

// DefaultPrefetch is the default number of rows per fetch batch.
const DefaultPrefetch = 256

// bufPool recycles encode scratch buffers across batches. Steady-state
// fetch and load traffic encodes one batch at a time; without the pool
// every batch allocates (and grows) a fresh byte slice.
var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 1<<14)
		return &b
	},
}

// maxPooledBuf caps the buffers the pool retains; one-off giant batches
// (bulk loads of whole relations) should not pin megabytes forever.
const maxPooledBuf = 1 << 22

// GetBuf borrows an empty scratch buffer from the encode pool.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf returns a scratch buffer to the encode pool. The caller must
// not touch the slice afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// EncodeBatch appends the encoding of rows to dst: a row count
// followed by each tuple.
func EncodeBatch(dst []byte, rows []types.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = types.EncodeTuple(dst, r)
	}
	return dst
}

// DecodeBatch decodes a batch produced by EncodeBatch.
func DecodeBatch(data []byte) ([]types.Tuple, error) {
	return DecodeBatchInto(nil, data)
}

// DecodeBatchInto decodes a batch appending to dst, so a steady-state
// consumer can recycle one row-header slice across fetches. The rows
// share one value slab and one string copied from data (see
// types.SlabDecoder): consumers may retain them, and data may be
// reused as soon as the call returns.
func DecodeBatchInto(dst []types.Tuple, data []byte) ([]types.Tuple, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("wire: bad batch header")
	}
	var d types.SlabDecoder
	d.Reset(data, nil)
	// Every row costs at least one byte, so this loop ends within
	// len(data) rows whatever count the header claims.
	pos := k
	for i := uint64(0); i < n; i++ {
		used, err := d.Scan(pos)
		if err != nil {
			return nil, fmt.Errorf("wire: row %d: %w", i, err)
		}
		pos += used
	}
	if pos != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-pos)
	}
	dst = slices.Grow(dst, int(n))
	for pos = k; pos < len(data); {
		t, used := d.Decode(pos)
		pos += used
		dst = append(dst, t)
	}
	return dst, nil
}

// EncodeSchema serializes a schema (names and kinds).
func EncodeSchema(dst []byte, s types.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	for _, c := range s.Cols {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

// DecodeSchema deserializes a schema and returns the bytes consumed.
func DecodeSchema(data []byte) (types.Schema, int, error) {
	d := decoder{b: data}
	n := d.uvarint("schema header")
	if n > uint64(len(d.b))/2 {
		// Every column costs at least two bytes (name length, kind).
		d.fail("schema column count")
		n = 0
	}
	cols := make([]types.Column, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		name := d.str("schema column name")
		cols = append(cols, types.Column{Name: name, Kind: types.Kind(d.byte("schema column kind"))})
	}
	if d.err != nil {
		return types.Schema{}, 0, d.err
	}
	return types.Schema{Cols: cols}, len(data) - len(d.b), nil
}

// Latency models the network between middleware and DBMS. The zero
// value is a free network (no sleeping), appropriate for unit tests;
// experiments configure realistic values to make transfer costs
// visible, as they are over a real JDBC connection.
type Latency struct {
	// RoundTrip is charged once per request (query, fetch, exec).
	RoundTrip time.Duration
	// BytesPerSecond throttles payload transfer; 0 means unlimited.
	BytesPerSecond float64
}

// Transmit returns the time to ship n payload bytes one way.
func (l Latency) Transmit(n int) time.Duration {
	if l.BytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.BytesPerSecond * float64(time.Second))
}

// Wire returns the delay of one request/response exchange carrying n
// payload bytes: one round trip plus the transmit time.
func (l Latency) Wire(n int) time.Duration {
	return l.RoundTrip + l.Transmit(n)
}

// Charge sleeps for one round trip plus the transmit time of n bytes.
// It is a no-op for the zero Latency. Callers that hold a cancelable
// context should use ChargeCtx so a dead session does not sleep out a
// simulated stall.
func (l Latency) Charge(n int) {
	l.ChargeCtx(context.Background(), n)
}

// ChargeCtx is Charge bounded by ctx: the sleep is cut short when the
// context is canceled (the session died, the server is draining), so
// simulated latency can never pin a connection past its lifetime. The
// remaining delay is simply not slept — the caller's next step will
// observe ctx.Err() through its own paths.
func (l Latency) ChargeCtx(ctx context.Context, n int) {
	d := l.Wire(n)
	if d <= 0 {
		return
	}
	SleepCtx(ctx, d)
}

// SleepCtx sleeps for d or until ctx is canceled, whichever comes
// first. It is the context-aware form every simulated delay in the
// wire layer (latency charges, injected stalls) goes through.
func SleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
