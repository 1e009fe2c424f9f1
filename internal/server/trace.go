// Server-side trace propagation: wire operations that arrive with a
// trace header (see wire.AppendHeader) produce finished "dbms.<op>"
// spans parented under the exact client span — the retry attempt, the
// load, the exec — that issued the request. The spans are filed with
// an attached telemetry.Collector, keyed by trace ID, until the
// middleware takes them back for stitching into the query's span tree.
// Without a collector (or without a header) no span is made.
package server

import (
	"sync/atomic"

	"tango/internal/telemetry"
	"tango/internal/wire"
)

// SetCollector attaches (or, with nil, detaches) the trace collector.
func (s *Server) SetCollector(c *telemetry.Collector) { s.collector.Store(c) }

// Collector returns the attached trace collector (nil when server-side
// tracing is off).
func (s *Server) Collector() *telemetry.Collector { return s.collector.Load() }

// BadHeaders reports how many requests carried an undecodable trace
// header (a version-skewed or corrupted peer).
func (s *Server) BadHeaders() int64 { return atomic.LoadInt64(&s.badHeaders) }

// beginOp opens the server-side span of one wire op from its trace
// header. It returns nil — making every downstream call free — when
// tracing is off, the request carries no trace, or the header is
// undecodable (counted, not fatal: a bad header must not fail the op).
func (s *Server) beginOp(op string, hdr []byte) *telemetry.Span {
	if s.collector.Load() == nil || len(hdr) == 0 {
		return nil
	}
	h, err := wire.DecodeHeader(hdr)
	if err != nil {
		atomic.AddInt64(&s.badHeaders, 1)
		return nil
	}
	if !h.Valid() {
		return nil
	}
	sp := telemetry.NewRemoteSpan("dbms."+op, telemetry.SpanContext{TraceID: h.TraceID, SpanID: h.SpanID})
	sp.Set("site", "dbms")
	return sp
}

// endOp finishes a server-side op span and files it with the
// collector for stitching.
func (s *Server) endOp(sp *telemetry.Span, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Set("error", err.Error())
	}
	sp.Finish()
	s.collector.Load().Collect(sp)
}
