package server

import (
	"testing"

	"tango/internal/engine"
	"tango/internal/types"
	"tango/internal/wire"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	db := engine.Open(engine.Config{})
	s := New(db, wire.Latency{})
	if _, err := s.ExecHdr(nil, "CREATE TABLE T (K INTEGER, V VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecHdr(nil, "INSERT INTO T VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e')"); err != nil {
		t.Fatal(err)
	}
	return s
}

func drainCursor(t *testing.T, c *Cursor) []types.Tuple {
	t.Helper()
	var rows []types.Tuple
	for {
		payload, err := c.FetchBatchHdr(nil)
		if err != nil {
			t.Fatal(err)
		}
		if payload == nil {
			break
		}
		batch, err := wire.DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			rows = append(rows, r.Clone())
		}
	}
	return rows
}

func TestCursorBatches(t *testing.T) {
	s := testServer(t)
	cur, err := s.QueryHdr(nil, "SELECT K FROM T ORDER BY K", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := drainCursor(t, cur)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i+1) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Fetch after exhaustion stays nil.
	payload, err := cur.FetchBatchHdr(nil)
	if err != nil || payload != nil {
		t.Errorf("post-EOF fetch: %v, %v", payload, err)
	}
}

func TestCursorSchema(t *testing.T) {
	s := testServer(t)
	cur, err := s.QueryHdr(nil, "SELECT K, V FROM T", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Schema().Len() != 2 {
		t.Errorf("schema: %v", cur.Schema())
	}
}

func TestLoadAndCounters(t *testing.T) {
	s := testServer(t)
	if _, err := s.ExecHdr(nil, "CREATE TABLE L (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	payload := wire.EncodeBatch(nil, []types.Tuple{{types.Int(10)}, {types.Int(20)}})
	n, err := s.LoadSeqHdr(nil, "L", payload, 0)
	if err != nil || n != 2 {
		t.Fatalf("load: %d, %v", n, err)
	}
	queries, rowsOut, rowsIn := s.Counters()
	if rowsIn != 2 {
		t.Errorf("rowsIn = %d", rowsIn)
	}
	cur, err := s.QueryHdr(nil, "SELECT K FROM L", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainCursor(t, cur)
	cur.Close()
	if len(rows) != 2 {
		t.Fatalf("loaded rows = %d", len(rows))
	}
	queries2, rowsOut2, _ := s.Counters()
	if queries2 != queries+1 || rowsOut2 != rowsOut+2 {
		t.Errorf("counters: %d/%d → %d/%d", queries, rowsOut, queries2, rowsOut2)
	}
}

func TestInsertRowsPath(t *testing.T) {
	s := testServer(t)
	if _, err := s.ExecHdr(nil, "CREATE TABLE I (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	payload := wire.EncodeBatch(nil, []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}})
	n, err := s.InsertRowsHdr(nil, "I", payload)
	if err != nil || n != 3 {
		t.Fatalf("insert rows: %d, %v", n, err)
	}
}

func TestTableStatsComputedOnDemand(t *testing.T) {
	s := testServer(t)
	stats, err := s.TableStatsHdr(nil, "T", 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cardinality != 5 {
		t.Errorf("cardinality = %d", stats.Cardinality)
	}
	if stats.Column("K").Histogram == nil {
		t.Error("on-demand ANALYZE should honor histogram buckets")
	}
	// Second call serves the cached catalog entry.
	stats2, err := s.TableStatsHdr(nil, "T", 0)
	if err != nil || stats2 != stats {
		t.Error("cached stats expected")
	}
}

func TestErrorPaths(t *testing.T) {
	s := testServer(t)
	if _, err := s.QueryHdr(nil, "SELECT * FROM NOPE", 0); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := s.LoadSeqHdr(nil, "NOPE", wire.EncodeBatch(nil, nil), 0); err == nil {
		t.Error("load into missing table should fail")
	}
	if _, err := s.LoadSeqHdr(nil, "T", []byte{0xFF, 0xFF}, 0); err == nil {
		t.Error("corrupt payload should fail")
	}
	if _, err := s.TableSchema("NOPE"); err == nil {
		t.Error("missing schema should fail")
	}
}

func TestConcurrentReaders(t *testing.T) {
	s := testServer(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 25; i++ {
				cur, err := s.QueryHdr(nil, "SELECT K, V FROM T WHERE K > 1", 2)
				if err != nil {
					done <- err
					return
				}
				n := 0
				for {
					payload, err := cur.FetchBatchHdr(nil)
					if err != nil {
						done <- err
						return
					}
					if payload == nil {
						break
					}
					batch, err := wire.DecodeBatch(payload)
					if err != nil {
						done <- err
						return
					}
					n += len(batch)
				}
				cur.Close()
				if n != 4 {
					done <- errRows(n)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errRows int

func (e errRows) Error() string { return "unexpected row count" }
