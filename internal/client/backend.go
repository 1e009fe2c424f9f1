// The backend seam: everything a connection needs from "the server",
// abstracted so the same client — iterators, retry machinery, fetch
// pipelining, temp-table protocol — runs unchanged over the in-process
// façade (unit tests, benchmarks) and over a real TCP socket
// (internal/client/tcp.go). The surface is the server's …Hdr entry
// points plus the session lifecycle. Both implementations end in the
// same server handler: inproc calls the …Hdr methods, each of which
// passes one wire.Request to it, and remoteConn sends that Request as
// a frame the server decodes and passes to it.
package client

import (
	"time"

	"tango/internal/meta"
	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// Backend is one server session as the connection sees it.
type Backend interface {
	// ExecHdr runs a non-SELECT statement.
	ExecHdr(hdr []byte, sql string) (int64, error)
	// QueryHdr opens a cursor over a SELECT.
	QueryHdr(hdr []byte, sql string, prefetch int) (Cursor, error)
	// LoadSeqHdr bulk-loads an encoded batch under a dedup sequence.
	LoadSeqHdr(hdr []byte, table string, payload []byte, seq int64) (int64, error)
	// InsertRowsHdr loads an encoded batch with per-row INSERTs.
	InsertRowsHdr(hdr []byte, table string, payload []byte) (int64, error)
	// TableStatsHdr fetches catalog statistics.
	TableStatsHdr(hdr []byte, table string, histogramBuckets int) (*meta.TableStats, error)
	// TableSchema fetches a table schema.
	TableSchema(table string) (types.Schema, error)
	// RegisterTemp and ForgetTemp maintain the session's temp-table
	// set for server-side GC.
	RegisterTemp(name string)
	ForgetTemp(name string)
	// SessionID is the server-side session identifier.
	SessionID() int64
	// TakeRemoteSpans drains server-collected spans of one trace (may
	// return nil when the transport cannot stitch remotely).
	TakeRemoteSpans(traceID uint64) []*telemetry.Span
	// Close ends the session, returning the temp-table GC count.
	Close() (int, error)
}

// Cursor is one open server cursor as the iterator sees it;
// *server.Cursor satisfies it directly.
type Cursor interface {
	Schema() types.Schema
	FetchBatchHdr(hdr []byte) ([]byte, error)
	FetchBatchSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, error)
	FetchBatchPipelinedSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, time.Duration, error)
	Close() error
}

var _ Cursor = (*server.Cursor)(nil)

// inproc is the in-process backend: direct calls into the server
// façade, with no encoding.
type inproc struct {
	srv *server.Server
	se  *server.Session
}

func (b *inproc) ExecHdr(hdr []byte, sql string) (int64, error) {
	return b.srv.ExecHdr(hdr, sql)
}

func (b *inproc) QueryHdr(hdr []byte, sql string, prefetch int) (Cursor, error) {
	cur, err := b.srv.QueryHdr(hdr, sql, prefetch)
	if err != nil {
		// Explicit nil: a typed-nil *server.Cursor inside the interface
		// would defeat `cur == nil` checks downstream.
		return nil, err
	}
	return cur, nil
}

func (b *inproc) LoadSeqHdr(hdr []byte, table string, payload []byte, seq int64) (int64, error) {
	return b.srv.LoadSeqHdr(hdr, table, payload, seq)
}

func (b *inproc) InsertRowsHdr(hdr []byte, table string, payload []byte) (int64, error) {
	return b.srv.InsertRowsHdr(hdr, table, payload)
}

func (b *inproc) TableStatsHdr(hdr []byte, table string, histogramBuckets int) (*meta.TableStats, error) {
	return b.srv.TableStatsHdr(hdr, table, histogramBuckets)
}

func (b *inproc) TableSchema(table string) (types.Schema, error) {
	return b.srv.TableSchema(table)
}

func (b *inproc) RegisterTemp(name string) { b.se.RegisterTemp(name) }
func (b *inproc) ForgetTemp(name string)   { b.se.ForgetTemp(name) }
func (b *inproc) SessionID() int64         { return b.se.ID() }

func (b *inproc) TakeRemoteSpans(traceID uint64) []*telemetry.Span {
	return b.srv.Collector().Take(traceID)
}

func (b *inproc) Close() (int, error) { return b.se.Close() }
