package main

import (
	"sync/atomic"
	"time"

	"tango/internal/client"
	"tango/internal/meta"
	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// timedBackend is the in-process client.Backend of one server session
// with a span around every call into the server layer. It records
// only while the benchmark has set a parent span (the caller's layer
// span); otherwise it is a plain pass-through.
type timedBackend struct {
	srv    *server.Server
	se     *server.Session
	tr     *tracer
	parent atomic.Int64
}

var _ client.Backend = (*timedBackend)(nil)

func newTimedBackend(srv *server.Server, tr *tracer) *timedBackend {
	return &timedBackend{srv: srv, se: srv.NewSession(), tr: tr}
}

// call opens a span named name under the current parent and returns
// the function that closes it.
func (b *timedBackend) call(name string) func() {
	p := b.parent.Load()
	if p == 0 {
		return func() {}
	}
	id := b.tr.begin(name, p)
	return func() { b.tr.end(id) }
}

func (b *timedBackend) ExecHdr(hdr []byte, sql string) (int64, error) {
	defer b.call("server.exec")()
	return b.srv.ExecHdr(hdr, sql)
}

func (b *timedBackend) QueryHdr(hdr []byte, sql string, prefetch int) (client.Cursor, error) {
	defer b.call("server.open")()
	cur, err := b.srv.QueryHdr(hdr, sql, prefetch)
	if err != nil {
		return nil, err
	}
	return &timedCursor{Cursor: cur, b: b}, nil
}

func (b *timedBackend) LoadSeqHdr(hdr []byte, table string, payload []byte, seq int64) (int64, error) {
	defer b.call("server.load")()
	return b.srv.LoadSeqHdr(hdr, table, payload, seq)
}

func (b *timedBackend) InsertRowsHdr(hdr []byte, table string, payload []byte) (int64, error) {
	defer b.call("server.insert")()
	return b.srv.InsertRowsHdr(hdr, table, payload)
}

func (b *timedBackend) TableStatsHdr(hdr []byte, table string, histogramBuckets int) (*meta.TableStats, error) {
	defer b.call("server.stats")()
	return b.srv.TableStatsHdr(hdr, table, histogramBuckets)
}

func (b *timedBackend) TableSchema(table string) (types.Schema, error) {
	defer b.call("server.stats")()
	return b.srv.TableSchema(table)
}

func (b *timedBackend) RegisterTemp(name string) { b.se.RegisterTemp(name) }
func (b *timedBackend) ForgetTemp(name string)   { b.se.ForgetTemp(name) }
func (b *timedBackend) SessionID() int64         { return b.se.ID() }

func (b *timedBackend) TakeRemoteSpans(traceID uint64) []*telemetry.Span {
	return b.srv.Collector().Take(traceID)
}

func (b *timedBackend) Close() (int, error) { return b.se.Close() }

// timedCursor charges batch fetches and the cursor close to
// server.fetch.
type timedCursor struct {
	client.Cursor
	b *timedBackend
}

func (c *timedCursor) FetchBatchHdr(hdr []byte) ([]byte, error) {
	defer c.b.call("server.fetch")()
	return c.Cursor.FetchBatchHdr(hdr)
}

func (c *timedCursor) FetchBatchSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, error) {
	defer c.b.call("server.fetch")()
	return c.Cursor.FetchBatchSeqHdr(hdr, seq, dst)
}

func (c *timedCursor) FetchBatchPipelinedSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, time.Duration, error) {
	defer c.b.call("server.fetch")()
	return c.Cursor.FetchBatchPipelinedSeqHdr(hdr, seq, dst)
}

func (c *timedCursor) Close() error {
	defer c.b.call("server.fetch")()
	return c.Cursor.Close()
}
