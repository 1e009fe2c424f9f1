// TCP transport: the Backend implemented over a real socket speaking
// the framed protocol of internal/wire. One Transport multiplexes many
// sessions over a single connection (request IDs pair replies to
// callers; session IDs ride the frame header), redials transparently
// when the connection is lost, and resumes its sessions server-side
// with their resume tokens — so the retry machinery above (sequence-
// numbered fetch replay, load dedup, drop-and-recreate) works over a
// severed, stalled, or truncated wire exactly as it does in process.
//
// A lost connection surfaces as a typed, retryable ErrConnLost; typed
// server errors (wire faults, admission sheds, shutdown) are
// reconstructed from the RemoteError codec so errors.As/Is chains
// behave identically on both transports.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/meta"
	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/wire"
)

// ErrConnLost is the typed failure of a request whose connection died
// under it (severed by chaos, closed by the server, unreachable). It
// is retryable: the next attempt redials and resumes the session.
type ErrConnLost struct {
	Addr string
	Err  error
}

// Error renders the loss.
func (e *ErrConnLost) Error() string {
	return fmt.Sprintf("client: connection to %s lost: %v", e.Addr, e.Err)
}

// Unwrap exposes the cause.
func (e *ErrConnLost) Unwrap() error { return e.Err }

// Transport is a multiplexed client connection to a TCP server; many
// sessions (Conn) share one. Safe for concurrent use.
type Transport struct {
	addr        string
	dialTimeout time.Duration

	// mu guards the live connection and is held across redials
	// (blocking dial + handshake I/O), so it is an ordered lock class,
	// not a latch.
	mu     sync.Mutex //tango:lock-order tcpdial
	nc     net.Conn
	epoch  uint64 // bumped per successful dial; sessions resume on change
	closed bool

	// wmu serializes frame writes (held across socket writes).
	wmu  sync.Mutex //tango:lock-order tcpxmit
	wbuf []byte

	pmu     sync.Mutex //tango:lock-order tcppending latch
	pending map[uint64]*pendingCall

	reqID atomic.Uint64
	wg    sync.WaitGroup
}

// pendingCall is one in-flight request awaiting its reply.
type pendingCall struct {
	ch chan rpcResult
	nc net.Conn // the connection the request went out on
}

// rpcResult is one reply (or transport failure).
type rpcResult struct {
	payload []byte
	err     error
}

// DialTransport creates a transport for addr. The first connection is
// established lazily on the first request.
func DialTransport(addr string) *Transport {
	return &Transport{
		addr:        addr,
		dialTimeout: 5 * time.Second,
		pending:     map[uint64]*pendingCall{},
	}
}

// Close severs the connection and fails every in-flight request; open
// sessions become unusable.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	nc := t.nc
	t.nc = nil
	t.mu.Unlock()
	if nc != nil {
		_ = nc.Close()
		t.failPending(nc, errors.New("transport closed"))
	}
	t.wg.Wait()
	return nil
}

// ensureConn returns the live connection, dialing (and handshaking)
// when there is none. The returned epoch identifies the dial so
// sessions know when they must resume.
func (t *Transport) ensureConn() (net.Conn, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: errors.New("transport closed")}
	}
	if t.nc != nil {
		return t.nc, t.epoch, nil
	}
	nc, err := net.DialTimeout("tcp", t.addr, t.dialTimeout)
	if err != nil {
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: err}
	}
	// Handshake synchronously — the reader starts only on success.
	hello := wire.Frame{Type: wire.MsgHello, Request: t.reqID.Add(1), Payload: wire.AppendHello(nil)}
	_ = nc.SetDeadline(time.Now().Add(t.dialTimeout))
	if _, err := nc.Write(wire.AppendFrame(nil, hello)); err != nil {
		_ = nc.Close()
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: err}
	}
	reply, _, err := wire.ReadFrame(nc, nil)
	if err != nil {
		_ = nc.Close()
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: err}
	}
	if reply.Type != wire.MsgHelloOK {
		_ = nc.Close()
		if reply.Type == wire.MsgErr {
			if re, derr := wire.DecodeRemoteError(reply.Payload); derr == nil {
				return nil, 0, remoteToError(re)
			}
		}
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: fmt.Errorf("handshake got %s", wire.MsgName(reply.Type))}
	}
	_ = nc.SetDeadline(time.Time{})
	t.nc = nc
	t.epoch++
	epoch := t.epoch
	t.wg.Add(1)
	go t.reader(nc)
	return nc, epoch, nil
}

// reader pumps replies off one connection, pairing them to their
// pending calls by request ID; on connection death it fails that
// connection's in-flight calls with ErrConnLost.
func (t *Transport) reader(nc net.Conn) {
	defer t.wg.Done()
	for {
		f, _, err := wire.ReadFrame(nc, nil)
		if err != nil {
			t.dropConn(nc, err)
			return
		}
		t.pmu.Lock()
		pc := t.pending[f.Request]
		if pc != nil {
			delete(t.pending, f.Request)
		}
		t.pmu.Unlock()
		if pc == nil {
			continue // reply to an abandoned request
		}
		switch f.Type {
		case wire.MsgOK:
			pc.ch <- rpcResult{payload: f.Payload}
		case wire.MsgErr:
			re, derr := wire.DecodeRemoteError(f.Payload)
			if derr != nil {
				pc.ch <- rpcResult{err: derr}
			} else {
				pc.ch <- rpcResult{err: remoteToError(re)}
			}
		default:
			pc.ch <- rpcResult{err: fmt.Errorf("client: unexpected reply %s", wire.MsgName(f.Type))}
		}
	}
}

// dropConn retires a dead connection and fails its in-flight calls.
func (t *Transport) dropConn(nc net.Conn, cause error) {
	t.mu.Lock()
	if t.nc == nc {
		t.nc = nil
	}
	t.mu.Unlock()
	_ = nc.Close()
	t.failPending(nc, cause)
}

// failPending fails every pending call registered on nc.
func (t *Transport) failPending(nc net.Conn, cause error) {
	t.pmu.Lock()
	var failed []*pendingCall
	for id, pc := range t.pending {
		if pc.nc == nc {
			failed = append(failed, pc)
			delete(t.pending, id)
		}
	}
	t.pmu.Unlock()
	for _, pc := range failed {
		pc.ch <- rpcResult{err: &ErrConnLost{Addr: t.addr, Err: cause}}
	}
}

// remoteToError reconstructs the typed error a RemoteError carried.
func remoteToError(re wire.RemoteError) error {
	switch re.Code {
	case wire.CodeOverloaded:
		return &server.ErrOverloaded{Backoff: re.Backoff, Queue: int(re.Queue), Reason: re.Msg}
	case wire.CodeFault:
		return &wire.FaultError{Op: re.Op, Kind: re.Kind, Index: re.Index}
	case wire.CodeShutdown:
		return fmt.Errorf("%w (%s)", server.ErrShutdown, re.Msg)
	default:
		return errors.New(re.Msg)
	}
}

// rpcOn sends one request on an already-resolved connection and waits
// for its reply.
func (t *Transport) rpcOn(nc net.Conn, session uint32, req wire.Request) (wire.Reply, error) {
	id := t.reqID.Add(1)
	pc := &pendingCall{ch: make(chan rpcResult, 1), nc: nc}
	t.pmu.Lock()
	t.pending[id] = pc
	t.pmu.Unlock()

	t.wmu.Lock()
	t.wbuf = wire.AppendFrame(t.wbuf[:0], wire.Frame{Type: req.Type, Session: session, Request: id})
	t.wbuf = wire.SealFrame(wire.AppendRequest(t.wbuf, req), 0)
	_, werr := nc.Write(t.wbuf)
	t.wmu.Unlock()
	if werr != nil {
		t.pmu.Lock()
		delete(t.pending, id)
		t.pmu.Unlock()
		t.dropConn(nc, werr)
		return wire.Reply{}, &ErrConnLost{Addr: t.addr, Err: werr}
	}
	r := <-pc.ch
	if r.err != nil {
		return wire.Reply{}, r.err
	}
	return wire.DecodeReply(req.Type, r.payload)
}

// Conn opens a new session over the transport and wraps it in a
// middleware connection.
func (t *Transport) Conn() (*Conn, error) {
	be, err := t.openSession(false)
	if err != nil {
		return nil, err
	}
	return NewConn(be), nil
}

// openSession performs the MsgOpenSession exchange.
func (t *Transport) openSession(own bool) (*remoteConn, error) {
	nc, epoch, err := t.ensureConn()
	if err != nil {
		return nil, err
	}
	rep, err := t.rpcOn(nc, 0, wire.Request{Type: wire.MsgOpenSession})
	if err != nil {
		return nil, err
	}
	return &remoteConn{t: t, id: rep.Session, token: rep.Token, epoch: epoch, own: own}, nil
}

// Dial opens a single connection with its own private transport; the
// transport is closed with the connection.
func Dial(addr string) (*Conn, error) {
	t := DialTransport(addr)
	be, err := t.openSession(true)
	if err != nil {
		_ = t.Close()
		return nil, err
	}
	return NewConn(be), nil
}

// remoteConn is one session over a Transport: the TCP Backend.
type remoteConn struct {
	t     *Transport
	id    uint32
	token uint64
	own   bool // the transport is private to this session

	// mu serializes resumption against requests; held across the
	// resume round trip, so ordered, not a latch.
	mu     sync.Mutex //tango:lock-order tcpresume
	epoch  uint64     // transport epoch this session last attached on
	closed bool
}

// call sends one session-scoped request, resuming the session first
// when the transport has redialed since the session last attached.
func (s *remoteConn) call(req wire.Request) (wire.Reply, error) {
	nc, epoch, err := s.t.ensureConn()
	if err != nil {
		return wire.Reply{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return wire.Reply{}, errors.New("client: session closed")
	}
	if s.epoch != epoch {
		resume := wire.Request{Type: wire.MsgResumeSession, Session: s.id, Token: s.token}
		if _, err := s.t.rpcOn(nc, 0, resume); err != nil {
			s.mu.Unlock()
			return wire.Reply{}, err
		}
		s.epoch = epoch
	}
	s.mu.Unlock()
	return s.t.rpcOn(nc, s.id, req)
}

func (s *remoteConn) ExecHdr(hdr []byte, sql string) (int64, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgExec, Hdr: hdr, SQL: sql})
	return rep.N, err
}

func (s *remoteConn) QueryHdr(hdr []byte, sql string, prefetch int) (Cursor, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgQuery, Hdr: hdr, SQL: sql, Prefetch: prefetch})
	if err != nil {
		return nil, err
	}
	return &remoteCursor{s: s, id: rep.Cursor, schema: rep.Schema}, nil
}

func (s *remoteConn) LoadSeqHdr(hdr []byte, table string, payload []byte, seq int64) (int64, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgLoad, Hdr: hdr, Table: table, Payload: payload, Seq: seq})
	return rep.N, err
}

func (s *remoteConn) InsertRowsHdr(hdr []byte, table string, payload []byte) (int64, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgInsert, Hdr: hdr, Table: table, Payload: payload})
	return rep.N, err
}

func (s *remoteConn) TableStatsHdr(hdr []byte, table string, histogramBuckets int) (*meta.TableStats, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgStats, Hdr: hdr, Table: table, Buckets: histogramBuckets})
	return rep.Stats, err
}

func (s *remoteConn) TableSchema(table string) (types.Schema, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgSchema, Table: table})
	return rep.Schema, err
}

// RegisterTemp and ForgetTemp maintain the server-side GC set; the
// interface is fire-and-forget, so transport failures fall through to
// the reaper (an unresumed session GCs its temps anyway).
func (s *remoteConn) RegisterTemp(name string) {
	_, _ = s.call(wire.Request{Type: wire.MsgRegisterTemp, Table: name})
}

func (s *remoteConn) ForgetTemp(name string) {
	_, _ = s.call(wire.Request{Type: wire.MsgForgetTemp, Table: name})
}

func (s *remoteConn) SessionID() int64 { return int64(s.id) }

// TakeRemoteSpans returns nil over TCP: spans stay in the server's
// collector (trace stitching is a server-side concern there).
func (s *remoteConn) TakeRemoteSpans(uint64) []*telemetry.Span { return nil }

func (s *remoteConn) Close() (int, error) {
	rep, err := s.call(wire.Request{Type: wire.MsgCloseSession})
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.own {
		defer func() { _ = s.t.Close() }()
	}
	return int(rep.N), err
}

// remoteCursor is one open server cursor over TCP.
type remoteCursor struct {
	s      *remoteConn
	id     uint64
	schema types.Schema

	next   atomic.Int64 // for the seq-less FetchBatchHdr path
	closed atomic.Bool
}

func (c *remoteCursor) Schema() types.Schema { return c.schema }

// fetch performs one sequence-numbered FETCH round trip, copying the
// batch into dst (nil at end of stream).
func (c *remoteCursor) fetch(hdr []byte, seq int64, dst []byte) ([]byte, error) {
	rep, err := c.s.call(wire.Request{Type: wire.MsgFetch, Hdr: hdr, Cursor: c.id, Seq: seq})
	if err != nil || rep.Batch == nil {
		return nil, err
	}
	return append(dst[:0], rep.Batch...), nil
}

// FetchBatchHdr is the seq-less path: the cursor numbers its own
// fetches so the transport's replay machinery still applies.
func (c *remoteCursor) FetchBatchHdr(hdr []byte) ([]byte, error) {
	seq := c.next.Load() + 1
	payload, err := c.fetch(hdr, seq, nil)
	if err == nil {
		c.next.Store(seq)
	}
	return payload, err
}

func (c *remoteCursor) FetchBatchSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, error) {
	return c.fetch(hdr, seq, dst)
}

// FetchBatchPipelinedSeqHdr reports zero propagation delay: over a
// real socket the wire itself is the delay.
func (c *remoteCursor) FetchBatchPipelinedSeqHdr(hdr []byte, seq int64, dst []byte) ([]byte, time.Duration, error) {
	payload, err := c.fetch(hdr, seq, dst)
	return payload, 0, err
}

// Close releases the server cursor (idempotent server-side; repeated
// local closes are elided).
func (c *remoteCursor) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	_, err := c.s.call(wire.Request{Type: wire.MsgCloseCursor, Cursor: c.id})
	return err
}
