package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/engine"
	"tango/internal/types"
)

// layerRows is the table size of the per-layer benchmarks.
const layerRows = 50000

// layerDB bulk-loads layerRows synthetic POSITION-shaped rows into
// table L of a fresh in-process engine (no server, no wire). Dept
// takes 8 values and T1 1,000, so sorts on them meet many ties.
func layerDB(b *testing.B) *engine.DB {
	b.Helper()
	db := engine.Open(engine.Config{})
	if _, err := db.CreateTable("L", types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "EmpName", Kind: types.KindString},
		types.Column{Name: "Dept", Kind: types.KindString},
		types.Column{Name: "PayRate", Kind: types.KindFloat},
		types.Column{Name: "T1", Kind: types.KindDate},
		types.Column{Name: "T2", Kind: types.KindDate},
	)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.Tuple, layerRows)
	for i := range rows {
		t1 := int64(7000 + rng.Intn(1000))
		rows[i] = types.Tuple{
			types.Int(int64(i)), types.Str(fmt.Sprintf("emp%05d", rng.Intn(layerRows))),
			types.Str(fmt.Sprintf("D%d", rng.Intn(8))), types.Float(float64(rng.Intn(5000)) / 100),
			types.Date(t1), types.Date(t1 + 1 + rng.Int63n(400)),
		}
	}
	if err := db.BulkLoad("L", rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkEngineSort is the DBMS's ORDER BY alone: a heap scan of
// 50,000 rows sorted on two keys with many ties, drained in process.
func BenchmarkEngineSort(b *testing.B) {
	db := layerDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := db.QueryAll("SELECT * FROM L ORDER BY Dept, T1")
		if err != nil {
			b.Fatal(err)
		}
		if out.Cardinality() != layerRows {
			b.Fatalf("sorted %d rows, want %d", out.Cardinality(), layerRows)
		}
	}
	b.ReportMetric(float64(layerRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkHeapScan is the storage layer alone: every page of the
// 50,000-row heap file decoded through the buffer pool.
func BenchmarkHeapScan(b *testing.B) {
	db := layerDB(b)
	tab, err := db.Table("L")
	if err != nil {
		b.Fatal(err)
	}
	var rows []types.Tuple
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for p := int32(0); p < int32(tab.Heap.NumPages()); p++ {
			if rows, err = tab.Heap.PageTuples(p, rows[:0]); err != nil {
				b.Fatal(err)
			}
			n += len(rows)
		}
		if n != layerRows {
			b.Fatalf("scanned %d rows, want %d", n, layerRows)
		}
	}
	b.ReportMetric(float64(layerRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
