package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/server"
	"tango/internal/tango"
	"tango/internal/uis"
	"tango/internal/wire"
)

// histogramBuckets is the ANALYZE depth and the middleware's
// statistics setting.
const histogramBuckets = 10

// tcpAdmission is tangoload's default admission configuration.
var tcpAdmission = server.AdmissionConfig{
	MaxInFlight: 64,
	MaxQueue:    256,
	QueueWait:   250 * time.Millisecond,
	RetryAfter:  2 * time.Millisecond,
}

// system is one loaded DBMS, served over TCP for tcp workloads.
type system struct {
	db  *engine.DB
	srv *server.Server
	ts  *server.TCPServer
	dir string // durable data directory (tcp workloads)
}

// setup generates the UIS data from seed, loads and analyzes it, and
// starts listening when the workload is served over TCP. Durable data
// goes to a fresh directory under tmpRoot.
func setup(w *workload, seed int64, tmpRoot string) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if w.tcp {
		if sys.dir, err = os.MkdirTemp(tmpRoot, w.name+"-"); err != nil {
			return sys, fmt.Errorf("setup: %w", err)
		}
		if sys.db, _, err = engine.OpenAt(sys.dir, engine.Config{}); err != nil {
			return sys, fmt.Errorf("setup: open store: %w", err)
		}
	} else {
		sys.db = engine.Open(engine.Config{})
	}
	sys.srv = server.New(sys.db, wire.Latency{})
	conn := client.NewConn(newTimedBackend(sys.srv, nil))
	defer func() {
		if cerr := conn.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("setup: %w", cerr)
		}
	}()
	if err = load(conn, w, seed); err != nil {
		return sys, fmt.Errorf("setup: %w", err)
	}
	if w.tcp {
		sys.ts, err = server.ListenAndServe(sys.srv, "127.0.0.1:0", server.TCPConfig{Admission: tcpAdmission})
		if err != nil {
			return sys, fmt.Errorf("setup: listen: %w", err)
		}
	}
	return sys, nil
}

// load is uis.Load with the generator seeded by the workload seed, plus
// the write workload's log table.
func load(conn *client.Conn, w *workload, seed int64) error {
	g := &uis.Generator{Seed: seed}
	if err := conn.CreateTable("POSITION", uis.PositionSchema()); err != nil {
		return err
	}
	if _, err := conn.Load("POSITION", g.Positions(w.position)); err != nil {
		return err
	}
	if err := conn.CreateTable("EMPLOYEE", uis.EmployeeSchema()); err != nil {
		return err
	}
	if _, err := conn.Load("EMPLOYEE", g.Employees(w.employee)); err != nil {
		return err
	}
	for _, stmt := range []string{
		"CREATE INDEX pos_posid ON POSITION (PosID)",
		"CREATE INDEX pos_empid ON POSITION (EmpID)",
		"CREATE INDEX emp_empid ON EMPLOYEE (EmpID)",
		fmt.Sprintf("ANALYZE POSITION HISTOGRAM %d", histogramBuckets),
		fmt.Sprintf("ANALYZE EMPLOYEE HISTOGRAM %d", histogramBuckets),
	} {
		if _, err := conn.Exec(stmt); err != nil {
			return err
		}
	}
	return conn.CreateTable(logTable, logSchema())
}

// close stops the listener, closes the store and removes its
// directory. It is safe on a partly built system.
func (s *system) close() error {
	var first error
	if s.ts != nil {
		first = s.ts.Close()
	}
	if s.db != nil {
		if err := s.db.Close(); first == nil {
			first = err
		}
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); first == nil {
			first = err
		}
	}
	return first
}

// session is one client: a connection and the middleware on it.
type session struct {
	id   int
	conn *client.Conn
	mw   *tango.Middleware
	// be is the timing backend of in-process sessions (nil over TCP).
	be *timedBackend
	// cycle is the next cycle of the session's statement stream.
	cycle int
}

// openSession connects one client the way the workload serves it:
// in-process through the timing backend, or over its own TCP
// connection.
func (s *system) openSession(w *workload, id int, tr *tracer) (*session, error) {
	se := &session{id: id}
	if w.tcp {
		conn, err := client.Dial(s.ts.Addr())
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", id, err)
		}
		se.conn = conn
	} else {
		se.be = newTimedBackend(s.srv, tr)
		se.conn = client.NewConn(se.be)
	}
	se.mw = tango.OpenConn(se.conn, tango.Options{
		HistogramBuckets: histogramBuckets,
		CheckPlans:       true,
		Retry:            w.retry,
	})
	return se, nil
}

// tmpRoot returns the per-run scratch directory inside the checkout.
func tmpRoot() (string, error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
