package engine

import (
	"errors"
	"fmt"
	"testing"

	"tango/internal/rel"
	"tango/internal/storage"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// failureDB builds a table large enough that scans must go back to the
// disk past the buffer pool.
func failureDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{BufferPoolPages: 2})
	if _, err := db.Exec("CREATE TABLE T (K INTEGER, V VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 180)
	for i := range long {
		long[i] = 'x'
	}
	for i := 0; i < 500; i++ {
		if err := db.Insert("T", types.Tuple{types.Int(int64(i)), types.Str(string(long))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestScanSurfacesInjectedReadError(t *testing.T) {
	db := failureDB(t)
	db.Disk().FailReadsAfter(3)
	_, err := db.QueryAll("SELECT K FROM T")
	if err == nil {
		t.Fatal("scan over failing disk should error")
	}
	if !errors.Is(err, storage.ErrInjectedRead) {
		t.Errorf("error should wrap the injected failure: %v", err)
	}
	// The disk recovers; the next query works (failure is one-shot).
	out, err := db.QueryAll("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatalf("post-failure query: %v", err)
	}
	if out.Tuples[0][0].AsInt() != 500 {
		t.Errorf("rows after recovery: %v", out)
	}
}

func TestJoinSurfacesInjectedReadError(t *testing.T) {
	db := failureDB(t)
	if _, err := db.Exec("CREATE TABLE S (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO S VALUES (1),(2)"); err != nil {
		t.Fatal(err)
	}
	db.Disk().FailReadsAfter(5)
	if _, err := db.QueryAll("SELECT T.K FROM T, S WHERE T.K = S.K"); err == nil {
		t.Fatal("join over failing disk should error")
	}
}

func TestInsertSurfacesInjectedWriteError(t *testing.T) {
	db := Open(Config{BufferPoolPages: 1})
	if _, err := db.Exec("CREATE TABLE W (K INTEGER, V VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	db.Disk().FailWritesAfter(2)
	var sawErr bool
	long := make([]byte, 190)
	for i := range long {
		long[i] = 'y'
	}
	// With a one-page pool, filling pages forces evictions and disk
	// writes; the injected failure must surface as an insert error.
	for i := 0; i < 400; i++ {
		if err := db.Insert("W", types.Tuple{types.Int(int64(i)), types.Str(string(long))}); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no insert error despite injected write failure")
	}
}

func TestBulkLoadSurfacesInjectedWriteError(t *testing.T) {
	db := Open(Config{BufferPoolPages: 1})
	if _, err := db.Exec("CREATE TABLE B (K INTEGER, V VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Tuple, 500)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("%0180d", i))}
	}
	db.Disk().FailWritesAfter(2)
	if err := db.BulkLoad("B", rows); err == nil {
		t.Fatal("bulk load over failing disk should error")
	}
}

// flakyInput yields rows of one integer column and fails at Open
// (failAt < 0) or at the failAt-th Next; it counts its Opens and
// Closes.
type flakyInput struct {
	failAt        int
	pos           int
	opens, closes int
}

var errFlaky = errors.New("flaky input")

func (f *flakyInput) Schema() types.Schema {
	return types.NewSchema(types.Column{Name: "K", Kind: types.KindInt})
}

func (f *flakyInput) Open() error {
	if f.failAt < 0 {
		return errFlaky
	}
	f.opens++
	f.pos = 0
	return nil
}

func (f *flakyInput) Next() (types.Tuple, bool, error) {
	if f.pos == f.failAt {
		return nil, false, errFlaky
	}
	f.pos++
	if f.pos > 3 {
		return nil, false, nil
	}
	return types.Tuple{types.Int(int64(f.pos))}, true, nil
}

func (f *flakyInput) Close() error { f.closes++; return nil }

// TestFailedOpenClosesInputs pins the rule that a failed Open releases
// what it acquired: every operator that drains or opens inputs in Open
// closes each input it opened when a later step fails, so no cursor
// stays open and each instrumented input flushes its stats once.
func TestFailedOpenClosesInputs(t *testing.T) {
	key := func(tu types.Tuple) (types.Value, error) { return tu[0], nil }
	keys := []evalFunc{key}
	pair := types.NewSchema(types.Column{Name: "K", Kind: types.KindInt}).
		Concat(types.NewSchema(types.Column{Name: "K2", Kind: types.KindInt}))
	out := func() joiner { return joiner{schema: pair, pair: make(types.Tuple, 2), nl: 1} }
	ops := []struct {
		name  string
		fails []int // failAt per input; -1 fails Open
		build func(in []rel.Iterator) rel.Iterator
	}{
		{"sort/next", []int{2}, func(in []rel.Iterator) rel.Iterator {
			return newSort(in[0], keys, []bool{false})
		}},
		{"group/next", []int{1}, func(in []rel.Iterator) rel.Iterator {
			return newGroup(in[0], keys, nil, types.NewSchema(types.Column{Name: "K", Kind: types.KindInt}))
		}},
		{"hashjoin/right-next", []int{9, 2}, func(in []rel.Iterator) rel.Iterator {
			return newHashJoin(in[0], in[1], keys, keys, out())
		}},
		{"hashjoin/left-open", []int{-1, 9}, func(in []rel.Iterator) rel.Iterator {
			return newHashJoin(in[0], in[1], keys, keys, out())
		}},
		{"nljoin/right-next", []int{9, 1}, func(in []rel.Iterator) rel.Iterator {
			return newNLJoin(in[0], in[1], out())
		}},
		{"nljoin/right-open", []int{9, -1}, func(in []rel.Iterator) rel.Iterator {
			return newNLJoin(in[0], in[1], out())
		}},
		{"mergejoin/right-next", []int{9, 0}, func(in []rel.Iterator) rel.Iterator {
			return newMergeJoin(in[0], in[1], key, key, out())
		}},
		{"union/right-open", []int{9, -1}, func(in []rel.Iterator) rel.Iterator {
			return newUnionAll(in[0], in[1])
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			var raw []*flakyInput
			var in []rel.Iterator
			flushes := make([]int, len(op.fails))
			for i, at := range op.fails {
				f := &flakyInput{failAt: at}
				w := telemetry.Instrument(fmt.Sprintf("input%d", i), nil, f)
				w.Sink = func(*telemetry.OpStats) { flushes[i]++ }
				raw = append(raw, f)
				in = append(in, w)
			}
			if err := op.build(in).Open(); !errors.Is(err, errFlaky) {
				t.Fatalf("Open = %v, want the input's failure", err)
			}
			for i, f := range raw {
				if f.opens != f.closes {
					t.Errorf("input %d: %d opens, %d closes", i, f.opens, f.closes)
				}
				if f.opens > 0 && flushes[i] != 1 {
					t.Errorf("input %d: stats flushed %d times, want 1", i, flushes[i])
				}
			}
		})
	}
}
