// Package server exposes the DBMS engine behind the wire boundary:
// every row leaving a query or entering the loader is serialized. The
// middleware only ever talks to this façade (the paper treats the DBMS
// as "a quite full featured file system").
//
// The façade is where the wire's unreliability is modeled: an attached
// wire.FaultInjector can drop, stall, or partially deliver any
// operation. To let the client retry through that, the server's
// effectful operations are idempotent: cursor fetches carry statement
// sequence numbers and the last batch is replayable, and bulk loads
// are deduplicated by a per-table load sequence, so a retry after an
// ambiguous failure (work done, reply lost) never double-applies.
package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/engine"
	"tango/internal/meta"
	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/wire"
)

// Server is the DBMS endpoint.
type Server struct {
	db  *engine.DB
	lat wire.Latency

	// faults, when non-nil, injects wire failures into every op.
	faults atomic.Pointer[wire.FaultInjector]

	// base, when non-nil, bounds every simulated delay (latency
	// charges, injected stalls): the TCP layer stores its drain context
	// here so shutdown cuts sleeps short instead of waiting them out.
	base atomic.Pointer[context.Context]

	// adm is the admission controller (disabled by default).
	adm admission

	// collector, when non-nil, receives finished server-side spans for
	// wire ops that arrive with a trace header (see trace.go).
	collector atomic.Pointer[telemetry.Collector]
	// badHeaders counts requests whose trace header failed to decode.
	badHeaders int64

	mu       sync.Mutex          //tango:lock-order server latch
	loadSeqs map[string]loadMark // per-table last applied load sequence
	sessions map[*Session]bool

	// counters for experiments
	queries int64
	rowsOut int64
	rowsIn  int64

	// openCursors tracks cursors opened but not yet closed (leak
	// detection for the chaos harness).
	openCursors int64
}

// loadMark remembers one applied bulk load for duplicate suppression.
type loadMark struct {
	seq  int64
	rows int64
}

// New wraps a database in a server with the given latency model.
func New(db *engine.DB, lat wire.Latency) *Server {
	s := &Server{db: db, lat: lat}
	s.adm.drainCh = make(chan struct{})
	return s
}

// SetBaseContext installs the context bounding every simulated delay
// (nil restores Background). The TCP layer points this at its drain
// context so a shutdown never waits out a simulated stall.
func (s *Server) SetBaseContext(ctx context.Context) {
	if ctx == nil {
		s.base.Store(nil)
		return
	}
	s.base.Store(&ctx)
}

// ctx resolves the server's delay-bounding context.
func (s *Server) ctx() context.Context {
	if p := s.base.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// DB exposes the engine for in-process test setup; production callers
// go through the wire methods.
func (s *Server) DB() *engine.DB { return s.db }

// SetLatency replaces the latency model (used by experiments).
func (s *Server) SetLatency(lat wire.Latency) { s.lat = lat }

// SetFaults attaches (or, with nil, detaches) a fault injector. Safe
// to swap between queries while other connections are idle.
func (s *Server) SetFaults(f *wire.FaultInjector) { s.faults.Store(f) }

// Faults returns the attached injector (nil when faults are off).
func (s *Server) Faults() *wire.FaultInjector { return s.faults.Load() }

// decide consults the injector for one op. The returned fault's Kind
// is KindNone on the clean path. KindStall is served here (the call
// proceeds after the stall); Drop and Partial are interpreted by the
// caller because they differ in whether the op's effect happens.
func (s *Server) decide(op wire.Op) wire.Fault {
	f := s.faults.Load()
	if f == nil {
		return wire.Fault{}
	}
	d := f.Decide(op)
	if d.Kind == wire.KindStall {
		// Context-aware: a draining server (or dead session) cuts the
		// stall short instead of sleeping it out.
		wire.SleepCtx(s.ctx(), d.Stall)
	}
	return d
}

// RegisterMetrics exports the server's traffic counters into the
// registry and turns on the engine's instrumentation (per-operator
// series under engine="dbms" plus the disk and buffer-pool gauges).
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("tango_server_queries", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.queries))
	})
	reg.GaugeFunc("tango_server_rows_out", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.rowsOut))
	})
	reg.GaugeFunc("tango_server_rows_in", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.rowsIn))
	})
	reg.GaugeFunc("tango_wire_bad_headers_total", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.badHeaders))
	})
	// Transport and admission lifecycle counters (the TCP layer and the
	// admission controller feed these).
	reg.GaugeFunc("tango_server_connections_total", nil, func() float64 {
		return float64(s.adm.connections.Load())
	})
	reg.GaugeFunc("tango_server_accepted_total", nil, func() float64 {
		return float64(s.adm.accepted.Load())
	})
	reg.GaugeFunc("tango_server_admitted_total", nil, func() float64 {
		return float64(s.adm.admitted.Load())
	})
	reg.GaugeFunc("tango_server_queued_total", nil, func() float64 {
		return float64(s.adm.queued.Load())
	})
	reg.GaugeFunc("tango_server_shed_total", nil, func() float64 {
		return float64(s.adm.shed.Load())
	})
	reg.GaugeFunc("tango_server_drained_total", nil, func() float64 {
		return float64(s.adm.drained.Load())
	})
	reg.GaugeFunc("tango_admission_queue_depth", nil, func() float64 {
		return float64(s.QueueDepth())
	})
	s.db.SetMetrics(reg)
}

// The DBMS entry points. Each packs its arguments into a wire.Request
// for handle, the one request path the TCP transport also takes.

// ExecHdr runs a non-SELECT statement. It is not idempotent in
// general; the client only retries statements it knows are (DROP IF
// EXISTS, and CREATE TABLE under its drop-and-recreate protocol).
func (s *Server) ExecHdr(hdr []byte, sql string) (int64, error) {
	rep, _, err := s.handle(wire.Request{Type: wire.MsgExec, Hdr: hdr, SQL: sql}, nil)
	return rep.N, err
}

// QueryHdr plans and opens a SELECT, returning a cursor that ships
// rows in serialized batches of up to prefetch rows.
func (s *Server) QueryHdr(hdr []byte, sql string, prefetch int) (*Cursor, error) {
	_, cur, err := s.handle(wire.Request{Type: wire.MsgQuery, Hdr: hdr, SQL: sql, Prefetch: prefetch}, nil)
	return cur, err
}

// LoadSeqHdr is the direct-path bulk loader (the paper's SQL*Loader):
// the payload is a serialized batch ("data file") appended to an
// existing table with pages filled to capacity. A load repeating the
// table's last nonzero seq is a duplicate delivery (the previous reply
// was lost) and is answered from the mark without re-applying.
func (s *Server) LoadSeqHdr(hdr []byte, table string, payload []byte, seq int64) (int64, error) {
	rep, _, err := s.handle(wire.Request{Type: wire.MsgLoad, Hdr: hdr, Table: table, Payload: payload, Seq: seq}, nil)
	return rep.N, err
}

// InsertRowsHdr is the conventional-path alternative to the loader:
// one INSERT per row, for the bulk-load ablation experiment. Not
// idempotent — the client must not retry it.
func (s *Server) InsertRowsHdr(hdr []byte, table string, payload []byte) (int64, error) {
	rep, _, err := s.handle(wire.Request{Type: wire.MsgInsert, Hdr: hdr, Table: table, Payload: payload}, nil)
	return rep.N, err
}

// TableStatsHdr returns catalog statistics, computing them (ANALYZE)
// with histogramBuckets if absent.
func (s *Server) TableStatsHdr(hdr []byte, table string, histogramBuckets int) (*meta.TableStats, error) {
	rep, _, err := s.handle(wire.Request{Type: wire.MsgStats, Hdr: hdr, Table: table, Buckets: histogramBuckets}, nil)
	return rep.Stats, err
}

// partialEffect is what a partial fault does to an op.
type partialEffect uint8

const (
	// partialNothing: nothing happens, as under a drop. Nothing was
	// opened or applied, so the op is trivially retryable.
	partialNothing partialEffect = iota
	// partialLosesAck: the op applies, then its acknowledgment is lost.
	partialLosesAck
	// partialCorrupts: the reply arrives truncated; the client's decode
	// fails and its retry replays the same sequence number.
	partialCorrupts
)

// partialEffects is the per-op fault table. A drop always means
// nothing happens; ops missing here do nothing under partial either.
var partialEffects = map[wire.Op]partialEffect{
	wire.OpExec:  partialLosesAck,
	wire.OpLoad:  partialLosesAck, // the retry hits the load's seq mark
	wire.OpFetch: partialCorrupts,
}

// handle serves one DBMS request for either transport, and alone does
// what every op shares: the dbms.<op> span, admission, the fault
// decision and the latency charge. Every op but Fetch holds an
// admission unit; a Query keeps it until its cursor closes (an open
// statement is live work: its snapshot, its replayable batch), and a
// Fetch runs under it. A request pays for its inbound bytes before it
// runs; a Fetch pays for the batch it returns, or when pipelined hands
// the delay back in Reply.Delay. cur is the cursor a Fetch addresses;
// a Query returns the cursor it opened.
func (s *Server) handle(req wire.Request, cur *Cursor) (rep wire.Reply, opened *Cursor, err error) {
	op, ok := wire.MsgOp(req.Type)
	if !ok || (op == wire.OpFetch) != (cur != nil) {
		return rep, nil, fmt.Errorf("server: no handler for %s", wire.MsgName(req.Type))
	}
	sp := s.beginOp(op.String(), req.Hdr)
	defer func() {
		switch op {
		case wire.OpFetch:
			sp.SetInt("seq", req.Seq)
			sp.SetInt("bytes", int64(len(rep.Batch)))
		case wire.OpLoad:
			sp.SetInt("bytes", int64(len(req.Payload)))
			sp.SetInt("rows", rep.N)
		case wire.OpInsert:
			sp.SetInt("rows", rep.N)
		}
		s.endOp(sp, err)
	}()
	if req.Prefetch > wire.MaxPrefetch {
		return rep, nil, &wire.PrefetchError{Prefetch: uint64(req.Prefetch)}
	}
	release := func() {}
	if op != wire.OpFetch {
		if release, err = s.admit(s.ctx()); err != nil {
			return rep, nil, err
		}
	}
	defer func() {
		if opened == nil {
			release()
		}
	}()
	if cur != nil {
		// Fetches of one cursor serialize, fault decision included: an
		// abandoned stalled call may race its retry.
		cur.mu.Lock()
		defer cur.mu.Unlock()
	}
	d, effect := s.decide(op), partialEffects[op]
	if d.Kind == wire.KindDrop || d.Kind == wire.KindPartial && effect == partialNothing {
		return rep, nil, d.Error(op)
	}
	if op == wire.OpStats {
		s.lat.ChargeCtx(s.ctx(), len(req.Table))
	} else if op != wire.OpFetch {
		s.lat.ChargeCtx(s.ctx(), len(req.SQL)+len(req.Payload))
	}
	switch op {
	case wire.OpExec:
		rep.N, err = s.exec(req.SQL)
	case wire.OpQuery:
		opened, err = s.query(req.SQL, req.Prefetch, release)
	case wire.OpFetch:
		rep.Batch, err = cur.fetch(req.Seq, req.Payload)
		switch {
		case rep.Batch == nil: // end of stream (or an error) is not charged
		case req.Pipelined:
			rep.Delay = s.lat.Wire(len(rep.Batch))
		default:
			s.lat.ChargeCtx(s.ctx(), len(rep.Batch))
		}
	case wire.OpLoad:
		rep.N, err = s.load(req.Table, req.Payload, req.Seq)
	case wire.OpInsert:
		rep.N, err = s.insert(req.Table, req.Payload)
	case wire.OpStats:
		rep.Stats, err = s.stats(req.Table, req.Buckets)
	}
	switch {
	case err != nil || d.Kind != wire.KindPartial:
		return rep, opened, err
	case effect == partialCorrupts:
		rep.Batch = wire.Corrupt(rep.Batch)
		return rep, opened, nil
	}
	return wire.Reply{}, nil, d.Error(op)
}

func (s *Server) exec(sql string) (int64, error) {
	if name, ok := strings.CutPrefix(sql, "DROP TABLE IF EXISTS "); ok {
		// The table's identity ends with the drop: a later temp table
		// reusing the name must not inherit its load-dedup mark.
		s.forgetLoadMark(strings.TrimSpace(name))
	}
	return s.db.Exec(sql)
}

// query opens a cursor that owns release, the statement's admission
// unit, until it closes.
func (s *Server) query(sql string, prefetch int, release func()) (*Cursor, error) {
	if prefetch <= 0 {
		prefetch = wire.DefaultPrefetch
	}
	// Statement → snapshot binding: the cursor pins the commit sequence
	// current at open, so its batches stream one consistent state no
	// matter what other sessions commit or load meanwhile. The pin is
	// released when the cursor closes.
	snap := s.db.Snapshot()
	it, err := snap.Query(sql)
	if err != nil {
		snap.Release()
		return nil, err
	}
	if err := it.Open(); err != nil {
		_ = it.Close()
		snap.Release()
		return nil, err
	}
	atomic.AddInt64(&s.queries, 1)
	atomic.AddInt64(&s.openCursors, 1)
	return &Cursor{srv: s, it: it, snap: snap, prefetch: prefetch, release: release}, nil
}

// OpenCursors reports the number of cursors opened but not yet
// closed. The chaos harness asserts it returns to zero after every
// query, faults or not.
func (s *Server) OpenCursors() int64 {
	return atomic.LoadInt64(&s.openCursors)
}

// Cursor is the server side of an open query. Batch production is
// serial, but the cursor tolerates the concurrency that client-side
// deadlines create (an abandoned stalled call racing its retry): all
// fetch paths serialize on an internal lock, and every produced batch
// carries a 1-based sequence number and stays replayable until the
// next one is produced.
type Cursor struct {
	srv      *Server
	it       rel.Iterator
	snap     *engine.Snapshot // pinned commit sequence; released on Close
	prefetch int
	release  func() // admission unit held while the statement is open

	// The cursor lock is held across iterator pulls (engine I/O): an
	// ordered class, not a latch.
	mu     sync.Mutex //tango:lock-order cursor
	done   bool
	closed bool
	seq    int64         // sequence number of the batch held in rows
	buf    []byte        // pooled encode scratch for the seq-less API
	rows   []types.Tuple // current batch (replayable); scratch reused
}

// Schema returns the result schema.
func (c *Cursor) Schema() types.Schema { return c.it.Schema() }

// CommitSeq returns the commit sequence the cursor's snapshot pinned
// at open.
func (c *Cursor) CommitSeq() uint64 { return c.snap.Seq() }

// produce pulls the next batch of up to prefetch rows from the
// result iterator, returning nil at end of stream. Caller holds c.mu.
func (c *Cursor) produce() ([]types.Tuple, error) {
	if c.done {
		return nil, nil
	}
	if c.rows == nil {
		c.rows = make([]types.Tuple, 0, c.prefetch)
	}
	rows := c.rows[:0]
	for len(rows) < c.prefetch {
		t, ok, err := c.it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.done = true
			break
		}
		rows = append(rows, t)
	}
	c.rows = rows
	if len(rows) == 0 {
		return nil, nil
	}
	atomic.AddInt64(&c.srv.rowsOut, int64(len(rows)))
	return rows, nil
}

// fetch produces or replays the batch with the given 1-based sequence
// number, encoding it into dst[:0]. seq == 0 means "the next batch". A
// nil payload signals end of stream. Caller holds c.mu.
func (c *Cursor) fetch(seq int64, dst []byte) ([]byte, error) {
	if seq == 0 {
		seq = c.seq + 1
	}
	var rows []types.Tuple
	switch {
	case seq == c.seq+1:
		var err error
		rows, err = c.produce()
		if err != nil {
			return nil, err
		}
		if rows == nil {
			// End of stream is idempotent: the sequence number does not
			// advance, and a lost EOS reply is re-answered with EOS.
			return nil, nil
		}
		c.seq = seq
	case seq == c.seq && c.seq > 0:
		// Replay: the previous reply was lost or corrupted in flight.
		rows = c.rows
	default:
		return nil, fmt.Errorf("server: cursor out of sync: asked batch %d, at %d", seq, c.seq)
	}
	return wire.EncodeBatch(dst[:0], rows), nil
}

// FetchBatchHdr produces the next serialized batch of up to prefetch
// rows into a pooled buffer. It returns nil when the result is
// exhausted. The returned slice is only valid until the next call.
func (c *Cursor) FetchBatchHdr(hdr []byte) ([]byte, error) {
	if c.buf == nil {
		c.buf = wire.GetBuf()
	}
	rep, _, err := c.srv.handle(wire.Request{Type: wire.MsgFetch, Hdr: hdr, Payload: c.buf}, c)
	return rep.Batch, err
}

// FetchBatchSeqHdr fetches with an explicit statement sequence number
// into a caller-owned buffer: asking for the current sequence number
// replays the last batch (idempotent retry after a lost or corrupted
// reply); asking for the next one produces it.
func (c *Cursor) FetchBatchSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, error) {
	rep, _, err := c.srv.handle(wire.Request{Type: wire.MsgFetch, Hdr: hdr, Seq: seq, Payload: dst}, c)
	return rep.Batch, err
}

// FetchBatchPipelinedSeqHdr is FetchBatchSeqHdr for windowed clients:
// it returns the reply's wire delay instead of sleeping it. Batch
// production stays serial — the cursor is a serial stream — but the
// caller charges each reply's propagation in its own goroutine,
// overlapping consecutive round trips exactly as a pipelined wire
// protocol with several outstanding FETCH requests does.
func (c *Cursor) FetchBatchPipelinedSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, time.Duration, error) {
	rep, _, err := c.srv.handle(wire.Request{Type: wire.MsgFetch, Hdr: hdr, Seq: seq, Payload: dst, Pipelined: true}, c)
	return rep.Batch, rep.Delay, err
}

// Close releases the cursor and returns its pooled encode buffer. The
// payload returned by the last FetchBatch must not be used after Close.
// Close is idempotent.
func (c *Cursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	if c.buf != nil {
		wire.PutBuf(c.buf)
		c.buf = nil
	}
	c.rows = nil
	if !c.closed {
		c.closed = true
		atomic.AddInt64(&c.srv.openCursors, -1)
		if c.release != nil {
			c.release()
		}
	}
	err := c.it.Close()
	c.snap.Release()
	return err
}

// load applies one bulk load, deduplicated by a nonzero seq.
func (s *Server) load(table string, payload []byte, seq int64) (int64, error) {
	if seq != 0 {
		s.mu.Lock()
		mark, ok := s.loadSeqs[table]
		s.mu.Unlock()
		if ok && mark.seq == seq {
			return mark.rows, nil
		}
	}
	rows, err := wire.DecodeBatch(payload)
	if err != nil {
		return 0, err
	}
	if err := s.db.BulkLoad(table, rows); err != nil {
		return 0, err
	}
	atomic.AddInt64(&s.rowsIn, int64(len(rows)))
	if seq != 0 {
		s.mu.Lock()
		if s.loadSeqs == nil {
			s.loadSeqs = map[string]loadMark{}
		}
		s.loadSeqs[table] = loadMark{seq: seq, rows: int64(len(rows))}
		s.mu.Unlock()
	}
	return int64(len(rows)), nil
}

// insert applies a batch one INSERT at a time.
func (s *Server) insert(table string, payload []byte) (int64, error) {
	rows, err := wire.DecodeBatch(payload)
	if err != nil {
		return 0, err
	}
	for i, r := range rows {
		// Each INSERT is its own round trip.
		s.lat.ChargeCtx(s.ctx(), 0)
		if err := s.db.Insert(table, r); err != nil {
			return int64(i), err
		}
	}
	atomic.AddInt64(&s.rowsIn, int64(len(rows)))
	return int64(len(rows)), nil
}

// stats returns a table's statistics, running ANALYZE if absent.
func (s *Server) stats(table string, histogramBuckets int) (*meta.TableStats, error) {
	t, err := s.db.Table(table)
	if err != nil {
		return nil, err
	}
	if t.Stats != nil {
		return t.Stats, nil
	}
	return s.db.Analyze(table, histogramBuckets)
}

// TableSchema returns a table's schema.
func (s *Server) TableSchema(table string) (types.Schema, error) {
	t, err := s.db.Table(table)
	if err != nil {
		return types.Schema{}, err
	}
	return t.Schema, nil
}

// Counters reports cumulative traffic for experiments.
func (s *Server) Counters() (queries, rowsOut, rowsIn int64) {
	return atomic.LoadInt64(&s.queries), atomic.LoadInt64(&s.rowsOut), atomic.LoadInt64(&s.rowsIn)
}

// String describes the server.
func (s *Server) String() string {
	return fmt.Sprintf("Server{tables: %v}", s.db.TableNames())
}
