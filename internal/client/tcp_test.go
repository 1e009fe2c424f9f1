package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tango/internal/engine"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

// tcpServer builds a loaded server and serves it on a loopback TCP
// listener with a short resume grace (tests sever connections and want
// prompt GC) — closed via cleanup.
func tcpServer(t *testing.T, rows int, cfg server.TCPConfig) *server.TCPServer {
	t.Helper()
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	if _, err := srv.ExecHdr(nil, "CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	se := srv.NewSession()
	c := Connect(srv)
	tuples := make([]types.Tuple, rows)
	for i := range tuples {
		tuples[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("emp-%d", i%37)),
			types.Int(int64(i % 50)),
			types.Int(int64(50 + i%50)),
		}
	}
	if _, err := c.Load("POSITION", tuples); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, _ = se.Close()
	if cfg.ResumeGrace == 0 {
		cfg.ResumeGrace = 200 * time.Millisecond
	}
	ts, err := server.ListenAndServe(srv, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ts.Close() })
	return ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPRoundTrip drives the full Backend surface over a real socket
// — query (batched fetches), exec, bulk load, schema, stats, and the
// temp-table protocol — and verifies the results match the in-process
// path byte for byte.
func TestTCPRoundTrip(t *testing.T) {
	ts := tcpServer(t, 500, server.TCPConfig{})
	defer leakCheck(t)()
	srv := ts.Server()

	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Reference result from the in-process path.
	ref := Connect(srv)
	want, _, err := ref.QueryAll("SELECT PosID, EmpName FROM POSITION ORDER BY PosID")
	if err != nil {
		t.Fatal(err)
	}
	got, fb, err := c.QueryAll("SELECT PosID, EmpName FROM POSITION ORDER BY PosID")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != want.Cardinality() || got.Cardinality() != 500 {
		t.Fatalf("TCP query: %d rows, want %d", got.Cardinality(), want.Cardinality())
	}
	for i, row := range got.Tuples {
		if row.String() != want.Tuples[i].String() {
			t.Fatalf("row %d differs: %v vs %v", i, row, want.Tuples[i])
		}
	}
	if fb.Rows != 500 || fb.Bytes == 0 {
		t.Fatalf("feedback: %+v", fb)
	}

	// Exec + schema + stats cross the wire typed.
	if _, err := c.Exec("INSERT INTO POSITION VALUES (999, 'extra', 1, 2)"); err != nil {
		t.Fatal(err)
	}
	schema, err := c.TableSchema("POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 4 {
		t.Fatalf("schema arity %d, want 4", schema.Len())
	}
	st, err := c.TableStats("POSITION", 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cardinality != 501 {
		t.Fatalf("stats cardinality %d, want 501", st.Cardinality)
	}
	wantStats, err := ref.TableStats("POSITION", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Columns) != len(wantStats.Columns) {
		t.Fatalf("stats columns %d vs %d", len(st.Columns), len(wantStats.Columns))
	}
	for key, wc := range wantStats.Columns {
		pc := st.Columns[key]
		if pc == nil || pc.Distinct != wc.Distinct || pc.NullCount != wc.NullCount ||
			pc.HasIndex != wc.HasIndex || (pc.Histogram == nil) != (wc.Histogram == nil) {
			t.Fatalf("column %s stats differ over the wire: %+v vs %+v", key, pc, wc)
		}
		if wc.Histogram != nil && pc.Histogram.NumBuckets() != wc.Histogram.NumBuckets() {
			t.Fatalf("column %s histogram differs: %d vs %d buckets",
				key, pc.Histogram.NumBuckets(), wc.Histogram.NumBuckets())
		}
	}

	// Temp-table protocol: create registers, load fills, drop forgets.
	tmp := c.TempName()
	if err := c.CreateTable(tmp, want.Schema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(tmp, want.Tuples[:10]); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable(tmp); err != nil {
		t.Fatal(err)
	}

	// Bulk insert path.
	ins := []types.Tuple{
		{types.Int(1000), types.Str("ins-a"), types.Int(1), types.Int(2)},
		{types.Int(1001), types.Str("ins-b"), types.Int(3), types.Int(4)},
	}
	if _, err := c.InsertRows("POSITION", ins); err != nil {
		t.Fatal(err)
	}

	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sessions collected", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if temps := srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables leaked: %v", temps)
	}
}

// TestTCPResumeAfterSever: a chaos proxy severs the connection mid
// query; the transport redials, resumes the session by token, and the
// sequence-numbered fetch replay finishes the stream — same rows, no
// leaks.
func TestTCPResumeAfterSever(t *testing.T) {
	ts := tcpServer(t, 2000, server.TCPConfig{ResumeGrace: 2 * time.Second})
	defer leakCheck(t)()
	srv := ts.Server()

	sched, err := wire.ParseSchedule("seed=3;fetch@4=drop;fetch@9=drop")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := wire.NewProxy(ts.Addr(), sched.Injector())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    5 * time.Millisecond,
		Multiplier:  2,
		OpTimeout:   time.Second,
		Deadline:    10 * time.Second,
	}
	c.Prefetch = 64 // many fetch round trips, so the traps land mid-stream

	out, _, err := c.QueryAll("SELECT PosID FROM POSITION ORDER BY PosID")
	if err != nil {
		t.Fatalf("query across severed connections: %v", err)
	}
	if out.Cardinality() != 2000 {
		t.Fatalf("got %d rows, want 2000", out.Cardinality())
	}
	for i, row := range out.Tuples {
		if row[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v after replay", i, row)
		}
	}
	if proxy.Severed() == 0 {
		t.Fatal("proxy never severed the connection — the test exercised nothing")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after resume: %v", err)
	}
	waitFor(t, "sessions collected", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if n := srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
}

// TestTCPExpiredSessionGC: a session whose client vanishes for longer
// than the resume grace is garbage-collected server-side — cursors
// closed, temp tables dropped — and a later resume is refused.
func TestTCPExpiredSessionGC(t *testing.T) {
	ts := tcpServer(t, 100, server.TCPConfig{ResumeGrace: 50 * time.Millisecond})
	defer leakCheck(t)()
	srv := ts.Server()

	tr := DialTransport(ts.Addr())
	c, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	// An open cursor and a registered temp table ride the session.
	rows, err := c.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	tmp := c.TempName()
	if err := c.CreateTable(tmp, rows.Schema()); err != nil {
		t.Fatal(err)
	}
	// Kill the transport: the session detaches and the grace expires.
	_ = tr.Close()
	waitFor(t, "expired session GC", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if n := srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) survived session GC", n)
	}
	if temps := srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables survived session GC: %v", temps)
	}
}

// TestTCPDrainTyped: a draining server answers new statements with
// ErrShutdown across the wire, and Close leaves no live sessions or
// connections behind.
func TestTCPDrainTyped(t *testing.T) {
	ts := tcpServer(t, 50, server.TCPConfig{DrainTimeout: 200 * time.Millisecond})
	defer leakCheck(t)()
	srv := ts.Server()
	srv.SetAdmission(server.AdmissionConfig{MaxInFlight: 4})

	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.QueryAll("SELECT PosID FROM POSITION"); err != nil {
		t.Fatal(err)
	}
	srv.StartDrain()
	_, _, err = c.QueryAll("SELECT PosID FROM POSITION")
	if !errors.Is(err, server.ErrShutdown) {
		t.Fatalf("draining server answered %v, want ErrShutdown", err)
	}
	if err := ts.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitFor(t, "teardown", func() bool {
		return ts.LiveRemoteSessions() == 0 && ts.LiveConns() == 0 && srv.LiveSessions() == 0
	})
}

// TestTCPOverloadShedAndRetry: overloading a capacity-1 TCP server
// sheds with a typed ErrOverloaded whose server-suggested backoff the
// client honors — the shed statement succeeds on retry once capacity
// frees, with no session leaks.
func TestTCPOverloadShedAndRetry(t *testing.T) {
	ts := tcpServer(t, 100, server.TCPConfig{
		Admission: server.AdmissionConfig{MaxInFlight: 1, MaxQueue: 0, RetryAfter: 2 * time.Millisecond},
	})
	defer leakCheck(t)()
	srv := ts.Server()

	tr := DialTransport(ts.Addr())
	defer tr.Close()
	holder, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := holder.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); err != nil || !ok {
		t.Fatalf("holder first row: ok=%v err=%v", ok, err)
	}

	// Without retries: typed shed, backoff attached.
	bare, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	_, _, qerr := bare.QueryAll("SELECT PosID FROM POSITION")
	var ov *server.ErrOverloaded
	if !errors.As(qerr, &ov) {
		t.Fatalf("got %v, want ErrOverloaded", qerr)
	}
	if ov.Backoff != 2*time.Millisecond {
		t.Fatalf("suggested backoff %v, want 2ms", ov.Backoff)
	}
	shedBefore := srv.Shed()
	if shedBefore == 0 {
		t.Fatal("shed counter never moved")
	}

	// With retries: the cursor closes mid-backoff, so the retry lands.
	retrier, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	retrier.Retry = RetryPolicy{
		MaxAttempts: 50,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		OpTimeout:   time.Second,
		Deadline:    10 * time.Second,
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = rows.Close()
	}()
	out, _, err := retrier.QueryAll("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	if out.Cardinality() != 100 {
		t.Fatalf("got %d rows, want 100", out.Cardinality())
	}

	for _, c := range []*Conn{holder, bare, retrier} {
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	waitFor(t, "sessions collected", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after teardown", got)
	}
}

// TestTCPQueryPrefetchTooLarge: a query asking for more rows per batch
// than wire.MaxPrefetch is refused with a typed error instead of sizing
// a batch buffer from the request, and the server goes on answering.
func TestTCPQueryPrefetchTooLarge(t *testing.T) {
	ts := tcpServer(t, 20, server.TCPConfig{})
	defer leakCheck(t)()
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Prefetch = 1 << 60
	_, _, err = c.QueryAll("SELECT PosID FROM POSITION")
	if err == nil || !strings.Contains(err.Error(), "prefetch") {
		t.Fatalf("prefetch 1<<60 answered %v, want a prefetch error", err)
	}
	c.Prefetch = wire.MaxPrefetch
	out, _, err := c.QueryAll("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatalf("next query: %v", err)
	}
	if out.Cardinality() != 20 {
		t.Fatalf("next query: %d rows, want 20", out.Cardinality())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ts.Server().OpenCursors(); n != 0 {
		t.Fatalf("%d open cursors", n)
	}
}
