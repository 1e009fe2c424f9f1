// Real TCP transport for the server façade: a net.Listener accept loop
// speaking the framed binary protocol of internal/wire. Many sessions
// multiplex over one connection (the frame header carries the session
// ID); requests of one session execute strictly in arrival order on a
// per-session worker, so the cursor replay and load-dedup idempotency
// protocols behave over a socket exactly as they do in process.
//
// Sessions survive their connection: when a connection dies (chaos
// proxy sever, client crash-and-redial), its sessions detach and stay
// alive for a resume grace period. A client that reconnects proves
// ownership with the session's resume token (MsgResumeSession) and
// continues — open cursors, temp tables, sequence numbers intact — so
// the client's retry machinery rides out severed connections. Sessions
// not resumed in time are garbage-collected: cursors closed, temp
// tables dropped, nothing leaked.
//
// Shutdown is a graceful drain: stop accepting, reject new statements
// with typed errors (ErrShutdown / wire.CodeShutdown), give in-flight
// statements a bounded window to finish, then cancel the rest via the
// server's base context and collect every session.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"tango/internal/wire"
)

// TCPConfig tunes the TCP front end. Zero values get defaults.
type TCPConfig struct {
	// Admission, when enabled, is installed on the server.
	Admission AdmissionConfig
	// ReadTimeout is the per-connection frame-read deadline: a
	// connection idle past it is cut (its sessions detach and await
	// resumption). Default 2m.
	ReadTimeout time.Duration
	// WriteTimeout bounds one reply write. Default 30s.
	WriteTimeout time.Duration
	// ResumeGrace is how long a detached session awaits resumption
	// before it is garbage-collected. Default 10s.
	ResumeGrace time.Duration
	// DrainTimeout bounds the graceful-drain wait for in-flight
	// statements on Close. Default 5s.
	DrainTimeout time.Duration
}

func (c TCPConfig) readTimeout() time.Duration {
	if c.ReadTimeout > 0 {
		return c.ReadTimeout
	}
	return 2 * time.Minute
}

func (c TCPConfig) writeTimeout() time.Duration {
	if c.WriteTimeout > 0 {
		return c.WriteTimeout
	}
	return 30 * time.Second
}

func (c TCPConfig) resumeGrace() time.Duration {
	if c.ResumeGrace > 0 {
		return c.ResumeGrace
	}
	return 10 * time.Second
}

func (c TCPConfig) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 5 * time.Second
}

// TCPServer serves a Server over real TCP.
type TCPServer struct {
	srv    *Server
	lis    net.Listener
	cfg    TCPConfig
	ctx    context.Context // canceled when the drain window closes
	cancel context.CancelFunc

	mu       sync.Mutex //tango:lock-order tcpsrv latch
	conns    map[net.Conn]struct{}
	sessions map[uint32]*remoteSession
	tokens   *rand.Rand
	closed   bool

	wg sync.WaitGroup
}

// ListenAndServe starts serving srv on addr ("127.0.0.1:0" picks a
// free port; see Addr). The admission configuration, when enabled, is
// installed on the server, and the server's simulated delays are bound
// to the drain context so shutdown cuts them short.
func ListenAndServe(srv *Server, addr string, cfg TCPConfig) (*TCPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPServer{
		srv:      srv,
		lis:      lis,
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		conns:    map[net.Conn]struct{}{},
		sessions: map[uint32]*remoteSession{},
		tokens:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if cfg.Admission.Enabled() {
		srv.SetAdmission(cfg.Admission)
	}
	srv.SetBaseContext(ctx)
	t.wg.Add(2)
	go t.acceptLoop()
	go t.reaper()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPServer) Addr() string { return t.lis.Addr().String() }

// Server returns the served façade.
func (t *TCPServer) Server() *Server { return t.srv }

// LiveConns reports the number of open TCP connections.
func (t *TCPServer) LiveConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// LiveRemoteSessions reports the number of live (attached or detached)
// TCP sessions.
func (t *TCPServer) LiveRemoteSessions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// Close gracefully drains and shuts the transport down: stop
// accepting, reject new statements typed, wait DrainTimeout for
// in-flight statements, cancel stragglers, sever connections, collect
// every session (cursors closed, temp tables dropped), and join every
// goroutine.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	err := t.lis.Close()
	t.srv.StartDrain()
	deadline := time.Now().Add(t.cfg.drainTimeout())
	for t.srv.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	t.cancel()

	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	sessions := make([]*remoteSession, 0, len(t.sessions))
	for _, rs := range t.sessions {
		sessions = append(sessions, rs)
	}
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, rs := range sessions {
		if _, closed, _ := rs.close(); closed {
			t.srv.CountDrained()
		}
	}
	t.wg.Wait()
	t.srv.SetBaseContext(nil)
	return err
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.lis.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = nc.Close()
			return
		}
		t.conns[nc] = struct{}{}
		t.mu.Unlock()
		t.srv.CountConnection()
		t.wg.Add(1)
		go t.serveConn(nc)
	}
}

// reaper garbage-collects sessions detached longer than the resume
// grace: their client is gone for good, so their cursors, snapshots,
// and temp tables are reclaimed.
func (t *TCPServer) reaper() {
	defer t.wg.Done()
	tick := t.cfg.resumeGrace() / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-t.cfg.resumeGrace())
		t.mu.Lock()
		var expired []*remoteSession
		for _, rs := range t.sessions {
			rs.mu.Lock()
			if rs.owner == nil && !rs.detachedAt.IsZero() && rs.detachedAt.Before(cutoff) {
				expired = append(expired, rs)
			}
			rs.mu.Unlock()
		}
		t.mu.Unlock()
		for _, rs := range expired {
			_, _, _ = rs.close()
		}
	}
}

// tcpConn is the per-connection server state.
type tcpConn struct {
	t  *TCPServer
	nc net.Conn

	// wmu serializes reply writes from the session workers. Held across
	// socket writes, so it is an ordered lock class, not a latch.
	wmu  sync.Mutex //tango:lock-order tcpwrite
	wbuf []byte

	// smu guards the sessions attached to this connection.
	smu      sync.Mutex //tango:lock-order tcpconn latch
	attached map[uint32]*remoteSession
}

// write encodes and sends one reply frame under the write deadline.
func (c *tcpConn) write(f wire.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.AppendFrame(c.wbuf[:0], f)
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.t.cfg.writeTimeout()))
	_, err := c.nc.Write(c.wbuf)
	return err
}

// reply sends the MsgOK answering req, encoding rep straight into the
// connection's frame buffer.
func (c *tcpConn) reply(req wire.Frame, rep wire.Reply) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.AppendFrame(c.wbuf[:0], wire.Frame{Type: wire.MsgOK, Session: req.Session, Request: req.Request})
	c.wbuf = wire.SealFrame(wire.AppendReply(c.wbuf, req.Type, rep), 0)
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.t.cfg.writeTimeout()))
	_, _ = c.nc.Write(c.wbuf)
}

// replyErr sends a MsgErr carrying err as a typed RemoteError.
func (c *tcpConn) replyErr(req wire.Frame, err error) {
	_ = c.write(wire.Frame{
		Type:    wire.MsgErr,
		Session: req.Session,
		Request: req.Request,
		Payload: wire.AppendRemoteError(nil, toRemoteError(err)),
	})
}

// toRemoteError classifies err into the wire's typed error codes so
// the client transport can reconstruct the same error types the
// in-process path surfaces.
func toRemoteError(err error) wire.RemoteError {
	var ov *ErrOverloaded
	if errors.As(err, &ov) {
		return wire.RemoteError{
			Code:    wire.CodeOverloaded,
			Msg:     ov.Reason,
			Backoff: ov.Backoff,
			Queue:   int64(ov.Queue),
		}
	}
	var fe *wire.FaultError
	if errors.As(err, &fe) {
		return wire.RemoteError{Code: wire.CodeFault, Msg: err.Error(), Op: fe.Op, Kind: fe.Kind, Index: fe.Index}
	}
	if errors.Is(err, ErrShutdown) || errors.Is(err, context.Canceled) {
		return wire.RemoteError{Code: wire.CodeShutdown, Msg: err.Error()}
	}
	return wire.RemoteError{Code: wire.CodeGeneric, Msg: err.Error()}
}

// serveConn runs one connection: handshake, then the frame dispatch
// loop. Session-scoped requests are handed to the session's worker so
// each session executes strictly in order while sessions proceed
// concurrently; a full worker queue blocks the reader — backpressure
// through the TCP window, exactly like a real pipe.
func (t *TCPServer) serveConn(nc net.Conn) {
	defer t.wg.Done()
	c := &tcpConn{t: t, nc: nc, attached: map[uint32]*remoteSession{}}
	defer func() {
		_ = nc.Close()
		t.mu.Lock()
		delete(t.conns, nc)
		t.mu.Unlock()
		c.detachAll()
	}()

	// Handshake: the first frame must be a well-formed Hello.
	_ = nc.SetReadDeadline(time.Now().Add(t.cfg.readTimeout()))
	hello, _, err := wire.ReadFrame(nc, nil)
	if err != nil || hello.Type != wire.MsgHello {
		return
	}
	if _, err := wire.CheckHello(hello.Payload); err != nil {
		c.replyErr(hello, err)
		return
	}
	if err := c.write(wire.Frame{Type: wire.MsgHelloOK, Request: hello.Request}); err != nil {
		return
	}

	for {
		_ = nc.SetReadDeadline(time.Now().Add(t.cfg.readTimeout()))
		// A fresh buffer per frame: the payload's ownership passes to the
		// session worker executing the request.
		f, _, err := wire.ReadFrame(nc, nil)
		if err != nil {
			return
		}
		switch f.Type {
		case wire.MsgOpenSession:
			t.openSession(c, f)
		case wire.MsgResumeSession:
			t.resumeSession(c, f)
		default:
			c.smu.Lock()
			rs := c.attached[f.Session]
			c.smu.Unlock()
			if rs == nil {
				c.replyErr(f, fmt.Errorf("server: unknown session %d on this connection", f.Session))
				continue
			}
			if !rs.enqueue(tcpJob{f: f, c: c}) {
				c.replyErr(f, ErrShutdown)
			}
		}
	}
}

// detachAll detaches every session attached to a dying connection;
// they await resumption (or the reaper).
func (c *tcpConn) detachAll() {
	c.smu.Lock()
	attached := c.attached
	c.attached = map[uint32]*remoteSession{}
	c.smu.Unlock()
	for _, rs := range attached {
		rs.mu.Lock()
		if rs.owner == c {
			rs.owner = nil
			rs.detachedAt = time.Now()
		}
		rs.mu.Unlock()
	}
}

// openSession creates a session, attaches it to the connection, and
// replies with its wire ID and resume token.
func (t *TCPServer) openSession(c *tcpConn, f wire.Frame) {
	if t.srv.Draining() {
		c.replyErr(f, ErrShutdown)
		return
	}
	se := t.srv.NewSession()
	rs := &remoteSession{
		t:       t,
		se:      se,
		id:      uint32(se.ID()),
		work:    make(chan tcpJob, 32),
		done:    make(chan struct{}),
		cursors: map[uint64]*cursorSlot{},
	}
	t.mu.Lock()
	rs.token = t.tokens.Uint64()
	t.sessions[rs.id] = rs
	t.mu.Unlock()
	rs.attach(c)
	t.srv.CountSessionAccepted()
	t.wg.Add(1)
	go rs.run()

	c.reply(f, wire.Reply{Session: rs.id, Token: rs.token})
}

// resumeSession re-attaches a detached session to a new connection
// after the client proved ownership with the resume token.
func (t *TCPServer) resumeSession(c *tcpConn, f wire.Frame) {
	req, err := wire.DecodeRequest(f.Type, f.Payload)
	if err != nil {
		c.replyErr(f, err)
		return
	}
	t.mu.Lock()
	rs := t.sessions[req.Session]
	t.mu.Unlock()
	if rs == nil {
		c.replyErr(f, fmt.Errorf("server: session %d expired (resume grace elapsed)", req.Session))
		return
	}
	rs.mu.Lock()
	ok := rs.token == req.Token && !rs.closed
	old := rs.owner
	rs.mu.Unlock()
	if !ok {
		c.replyErr(f, fmt.Errorf("server: session %d resume rejected", req.Session))
		return
	}
	if old != nil && old != c {
		// The client redialed while the old connection is still up
		// (half-open pipe): the new connection wins.
		old.smu.Lock()
		delete(old.attached, rs.id)
		old.smu.Unlock()
	}
	rs.attach(c)
	t.srv.CountSessionAccepted()
	c.reply(f, wire.Reply{})
}

// tcpJob is one session-scoped request awaiting its worker.
type tcpJob struct {
	f wire.Frame
	c *tcpConn
}

// cursorSlot is a server cursor held by a remote session, with the
// buffer its batches are encoded into; the size of the last one (the
// replayable batch) is charged against the session's memory budget.
type cursorSlot struct {
	cur *Cursor
	buf []byte
	mem int64
}

// remoteSession is the TCP-side state of one multiplexed session.
type remoteSession struct {
	t     *TCPServer
	se    *Session
	id    uint32
	token uint64
	work  chan tcpJob
	done  chan struct{}

	mu         sync.Mutex //tango:lock-order remotesess latch
	owner      *tcpConn
	detachedAt time.Time
	cursors    map[uint64]*cursorSlot
	nextCursor uint64
	closed     bool
}

// attach binds the session to a connection.
func (rs *remoteSession) attach(c *tcpConn) {
	rs.mu.Lock()
	rs.owner = c
	rs.detachedAt = time.Time{}
	rs.mu.Unlock()
	c.smu.Lock()
	c.attached[rs.id] = rs
	c.smu.Unlock()
}

// enqueue hands a request to the worker, blocking for backpressure; it
// reports false when the session (or server) is shutting down.
func (rs *remoteSession) enqueue(j tcpJob) bool {
	select {
	case rs.work <- j:
		return true
	case <-rs.done:
		return false
	case <-rs.t.ctx.Done():
		return false
	}
}

// close tears the session down: cursors closed, engine session closed
// (temp tables garbage-collected), worker released, registries
// cleared. It returns the number of temp tables collected, and whether
// this call did the teardown (false when already closed).
func (rs *remoteSession) close() (collected int, closed bool, err error) {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return 0, false, nil
	}
	rs.closed = true
	cursors := rs.cursors
	rs.cursors = map[uint64]*cursorSlot{}
	owner := rs.owner
	rs.owner = nil
	rs.mu.Unlock()

	for _, slot := range cursors {
		_ = slot.cur.Close()
	}
	collected, err = rs.se.Close()
	close(rs.done)

	rs.t.mu.Lock()
	delete(rs.t.sessions, rs.id)
	rs.t.mu.Unlock()
	if owner != nil {
		owner.smu.Lock()
		delete(owner.attached, rs.id)
		owner.smu.Unlock()
	}
	return collected, true, err
}

// run is the session worker: requests execute strictly in arrival
// order, so sequence-numbered replay and load dedup see the same
// serial stream they see in process.
func (rs *remoteSession) run() {
	defer rs.t.wg.Done()
	for {
		select {
		case <-rs.done:
			return
		case <-rs.t.ctx.Done():
			return
		case j := <-rs.work:
			rs.handle(j)
			if j.f.Type == wire.MsgCloseSession {
				return
			}
		}
	}
}

// mem returns the session's resident bytes: the replayable batches of
// its open cursors.
func (rs *remoteSession) memLocked() int64 {
	var m int64
	for _, slot := range rs.cursors {
		m += slot.mem
	}
	return m
}

// overBudget enforces the per-session memory budget: the request's
// payload plus the session's resident cursor batches must fit.
func (rs *remoteSession) overBudget(extra int64) bool {
	budget := rs.t.srv.Admission().SessionBudget
	if budget <= 0 {
		return false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.memLocked()+extra > budget
}

// handle executes one request and writes its reply.
func (rs *remoteSession) handle(j tcpJob) {
	rep, err := rs.serve(j.f)
	if err != nil {
		j.c.replyErr(j.f, err)
		return
	}
	j.c.reply(j.f, rep)
}

// serve decodes one request and runs it: the session and cursor
// plumbing here, every DBMS op through Server.handle.
func (rs *remoteSession) serve(f wire.Frame) (wire.Reply, error) {
	srv := rs.t.srv
	if _, gated := wire.MsgOp(f.Type); gated && rs.overBudget(int64(len(f.Payload))) {
		return wire.Reply{}, srv.shedBudget(srv.QueueDepth())
	}
	req, err := wire.DecodeRequest(f.Type, f.Payload)
	if err != nil {
		return wire.Reply{}, err
	}
	switch req.Type {
	case wire.MsgCloseSession:
		n, _, err := rs.close()
		return wire.Reply{N: int64(n)}, err
	case wire.MsgQuery:
		rep, cur, err := srv.handle(req, nil)
		if err != nil {
			return rep, err
		}
		rs.mu.Lock()
		if rs.closed {
			rs.mu.Unlock()
			_ = cur.Close()
			return wire.Reply{}, ErrShutdown
		}
		rs.nextCursor++
		id := rs.nextCursor
		rs.cursors[id] = &cursorSlot{cur: cur}
		rs.mu.Unlock()
		return wire.Reply{Cursor: id, Schema: cur.Schema()}, nil
	case wire.MsgFetch:
		rs.mu.Lock()
		slot := rs.cursors[req.Cursor]
		if slot != nil {
			// The batch is encoded into the slot's buffer, reused: the
			// reply is written before the session's next request runs.
			req.Payload = slot.buf
		}
		rs.mu.Unlock()
		if slot == nil {
			return wire.Reply{}, fmt.Errorf("server: unknown cursor %d", req.Cursor)
		}
		rep, _, err := srv.handle(req, slot.cur)
		if err == nil && rep.Batch != nil {
			rs.mu.Lock()
			slot.buf, slot.mem = rep.Batch, int64(len(rep.Batch))
			rs.mu.Unlock()
		}
		return rep, err
	case wire.MsgCloseCursor:
		rs.mu.Lock()
		slot := rs.cursors[req.Cursor]
		delete(rs.cursors, req.Cursor)
		rs.mu.Unlock()
		if slot != nil {
			_ = slot.cur.Close()
		}
		// Closing an unknown cursor is idempotent: a retried close after
		// a lost acknowledgment must succeed.
		return wire.Reply{}, nil
	case wire.MsgSchema:
		schema, err := srv.TableSchema(req.Table)
		return wire.Reply{Schema: schema}, err
	case wire.MsgRegisterTemp:
		rs.se.RegisterTemp(req.Table)
		return wire.Reply{}, nil
	case wire.MsgForgetTemp:
		rs.se.ForgetTemp(req.Table)
		return wire.Reply{}, nil
	}
	rep, _, err := srv.handle(req, nil)
	return rep, err
}
