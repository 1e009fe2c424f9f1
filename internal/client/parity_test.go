package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tango/internal/engine"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

// parityRows is a batch of n rows (K, V) starting at key from.
func parityRows(from, n int) []byte {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(from + i)), types.Str(fmt.Sprintf("v%d", from+i))}
	}
	return wire.EncodeBatch(nil, rows)
}

// outcome renders one step's error by its type, so the two transports
// can be compared: typed errors by their fields, any other error by
// its message.
func outcome(err error) string {
	var fe *wire.FaultError
	var ov *server.ErrOverloaded
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &fe):
		return fmt.Sprintf("fault(%s,%s,#%d)", fe.Op, fe.Kind, fe.Index)
	case errors.As(err, &ov):
		return fmt.Sprintf("overloaded(%s,queue=%d,backoff=%v)", ov.Reason, ov.Queue, ov.Backoff)
	case errors.Is(err, server.ErrShutdown):
		return "shutdown"
	}
	return "error: " + err.Error()
}

// batchString renders a fetched batch: its rows when it decodes, its
// bytes when a partial fault truncated it.
func batchString(b []byte) string {
	if b == nil {
		return "eos"
	}
	rows, err := wire.DecodeBatch(b)
	if err != nil {
		return fmt.Sprintf("undecodable %x", b)
	}
	var parts []string
	for _, r := range rows {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, " ")
}

// parityScript drives one backend through every request type, every
// server-side fault on every faultable op, and the admission and drain
// rejections, returning one line per step.
func parityScript(t *testing.T, srv *server.Server, be Backend) []string {
	t.Helper()
	var log []string
	record := func(step, result string, err error) {
		log = append(log, step+": "+result+" / "+outcome(err))
	}
	exec := func(step, sql string) {
		n, err := be.ExecHdr(nil, sql)
		record(step, fmt.Sprint(n), err)
	}
	count := func(step string) {
		cur, err := be.QueryHdr(nil, "SELECT COUNT(K) FROM P", 0)
		if err != nil {
			record(step, "", err)
			return
		}
		b, err := cur.FetchBatchSeqHdr(nil, 1, nil)
		record(step, batchString(b), err)
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fault := func(op wire.Op, kind wire.FaultKind) {
		srv.SetFaults(wire.NewFaultInjector(1).AddTrap(op, 1, kind))
	}

	exec("create", "CREATE TABLE P (K INTEGER, V VARCHAR(20))")
	exec("insert-sql", "INSERT INTO P VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e')")

	// A batched query: seq-numbered fetches with a replay, the
	// pipelined and seq-less paths, end of stream, and the schema.
	cur, err := be.QueryHdr(nil, "SELECT K, V FROM P ORDER BY K", 2)
	if err != nil {
		t.Fatal(err)
	}
	record("schema", cur.Schema().String(), nil)
	b, err := cur.FetchBatchSeqHdr(nil, 1, nil)
	record("fetch 1", batchString(b), err)
	b, err = cur.FetchBatchSeqHdr(nil, 1, nil)
	record("replay 1", batchString(b), err)
	b, _, err = cur.FetchBatchPipelinedSeqHdr(nil, 2, nil)
	record("pipelined 2", batchString(b), err)
	b, err = cur.FetchBatchSeqHdr(nil, 5, nil)
	record("out of sync", batchString(b), err)
	b, err = cur.FetchBatchSeqHdr(nil, 3, nil)
	record("fetch 3", batchString(b), err)
	b, err = cur.FetchBatchSeqHdr(nil, 4, nil)
	record("eos", batchString(b), err)
	record("close cursor", "", cur.Close())
	cur, err = be.QueryHdr(nil, "SELECT K FROM P WHERE K > 3 ORDER BY K", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		b, err = cur.FetchBatchHdr(nil)
		record(fmt.Sprintf("seq-less %d", i), batchString(b), err)
	}
	record("close cursor", "", cur.Close())
	_, err = be.QueryHdr(nil, "SELECT K FROM P", wire.MaxPrefetch+1)
	record("prefetch too large", "", err)
	_, err = be.QueryHdr(nil, "SELECT NOPE FROM P", 0)
	record("bad query", "", err)

	// Load twice under one seq: the second is answered from the mark.
	n, err := be.LoadSeqHdr(nil, "P", parityRows(10, 3), 7)
	record("load", fmt.Sprint(n), err)
	n, err = be.LoadSeqHdr(nil, "P", parityRows(10, 3), 7)
	record("load dup", fmt.Sprint(n), err)
	count("count after load")
	n, err = be.InsertRowsHdr(nil, "P", parityRows(20, 2))
	record("insert", fmt.Sprint(n), err)
	st, err := be.TableStatsHdr(nil, "P", 4)
	record("stats", fmt.Sprintf("%x", wire.AppendTableStats(nil, st)), err)
	schema, err := be.TableSchema("P")
	record("table schema", schema.String(), err)

	// Every faultable op under drop and partial.
	for _, kind := range []wire.FaultKind{wire.KindDrop, wire.KindPartial} {
		k := kind.String()
		fault(wire.OpExec, kind)
		exec("exec "+k, "INSERT INTO P VALUES (30,'x')")
		srv.SetFaults(nil)
		count("count after exec " + k)

		fault(wire.OpQuery, kind)
		_, err := be.QueryHdr(nil, "SELECT K FROM P", 0)
		record("query "+k, "", err)
		srv.SetFaults(nil)
		record("cursors after query "+k, fmt.Sprint(srv.OpenCursors()), nil)

		cur, err := be.QueryHdr(nil, "SELECT K FROM P ORDER BY K", 3)
		if err != nil {
			t.Fatal(err)
		}
		fault(wire.OpFetch, kind)
		b, err := cur.FetchBatchSeqHdr(nil, 1, nil)
		record("fetch "+k, batchString(b), err)
		srv.SetFaults(nil)
		b, err = cur.FetchBatchSeqHdr(nil, 1, nil)
		record("fetch retry "+k, batchString(b), err)
		record("close cursor", "", cur.Close())

		fault(wire.OpLoad, kind)
		n, err := be.LoadSeqHdr(nil, "P", parityRows(40, 2), 8+int64(kind))
		record("load "+k, fmt.Sprint(n), err)
		srv.SetFaults(nil)
		n, err = be.LoadSeqHdr(nil, "P", parityRows(40, 2), 8+int64(kind))
		record("load retry "+k, fmt.Sprint(n), err)

		fault(wire.OpInsert, kind)
		n, err = be.InsertRowsHdr(nil, "P", parityRows(50, 2))
		record("insert "+k, fmt.Sprint(n), err)
		srv.SetFaults(nil)
		count("count after insert " + k)

		fault(wire.OpStats, kind)
		_, err = be.TableStatsHdr(nil, "P", 4)
		record("stats "+k, "", err)
		srv.SetFaults(nil)
	}

	// Admission: an open cursor holds the only unit, so the next
	// statement is shed; a draining server rejects typed.
	srv.SetAdmission(server.AdmissionConfig{MaxInFlight: 1})
	cur, err = be.QueryHdr(nil, "SELECT K FROM P", 0)
	if err != nil {
		t.Fatal(err)
	}
	exec("exec shed", "INSERT INTO P VALUES (60,'y')")
	record("close cursor", "", cur.Close())
	srv.SetAdmission(server.AdmissionConfig{})
	srv.StartDrain()
	exec("exec draining", "INSERT INTO P VALUES (61,'z')")
	srv.EndDrain()
	count("final count")

	// Temp tables: the forgotten one was dropped by the client, the
	// registered one is collected when the session closes.
	exec("create temp a", "CREATE TABLE "+server.TempPrefix+"PA (K INTEGER)")
	exec("create temp b", "CREATE TABLE "+server.TempPrefix+"PB (K INTEGER)")
	be.RegisterTemp(server.TempPrefix + "PA")
	be.RegisterTemp(server.TempPrefix + "PB")
	exec("drop temp b", "DROP TABLE IF EXISTS "+server.TempPrefix+"PB")
	be.ForgetTemp(server.TempPrefix + "PB")
	collected, err := be.Close()
	record("close session", fmt.Sprint(collected), err)
	return log
}

// TestTransportParity runs one script over the in-process backend and
// over a TCP session, each against its own fresh server: every result
// and every typed error must agree, and both servers must end with no
// open cursors, temp tables or sessions.
func TestTransportParity(t *testing.T) {
	defer leakCheck(t)()
	local := server.New(engine.Open(engine.Config{}), wire.Latency{})
	remote := server.New(engine.Open(engine.Config{}), wire.Latency{})
	ts, err := server.ListenAndServe(remote, "127.0.0.1:0", server.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	baseLocal, baseRemote := local.LiveSessions(), remote.LiveSessions()

	want := parityScript(t, local, Connect(local).be)
	dialed, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	got := parityScript(t, remote, dialed.be)

	if len(got) != len(want) {
		t.Fatalf("TCP script ran %d steps, in-process %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d differs:\n  in-process %s\n  TCP        %s", i, want[i], got[i])
		}
	}
	for _, s := range []struct {
		name string
		srv  *server.Server
		base int
	}{{"in-process", local, baseLocal}, {"TCP", remote, baseRemote}} {
		if n := s.srv.OpenCursors(); n != 0 {
			t.Errorf("%s: %d open cursors", s.name, n)
		}
		if tt := s.srv.TempTables(); len(tt) != 0 {
			t.Errorf("%s: temp tables left: %v", s.name, tt)
		}
		if n := s.srv.LiveSessions(); n != s.base {
			t.Errorf("%s: %d live sessions, want %d", s.name, n, s.base)
		}
	}
}
