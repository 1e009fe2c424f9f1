package bench

import (
	"fmt"
	"math/rand"
	"strings"
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

// joinDB loads two tables shaped like the paper's: J, 50,000
// POSITION-like rows where each PosID holds 4 rows with random periods
// (so a temporal self-join on PosID tests 16 candidate pairs per key
// and keeps the overlapping ones), and K, 20,000 EMPLOYEE-like rows of
// 12 columns that J.EmpID references.
func joinDB(b *testing.B) *engine.DB {
	b.Helper()
	const employees = 20000
	db := engine.Open(engine.Config{})
	if _, err := db.CreateTable("J", types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "EmpID", Kind: types.KindInt},
		types.Column{Name: "EmpName", Kind: types.KindString},
		types.Column{Name: "Dept", Kind: types.KindString},
		types.Column{Name: "PayRate", Kind: types.KindFloat},
		types.Column{Name: "T1", Kind: types.KindDate},
		types.Column{Name: "T2", Kind: types.KindDate},
	)); err != nil {
		b.Fatal(err)
	}
	kcols := []types.Column{
		{Name: "EmpID", Kind: types.KindInt},
		{Name: "EmpName", Kind: types.KindString},
		{Name: "Addr", Kind: types.KindString},
	}
	for i := 1; i <= 9; i++ {
		kcols = append(kcols, types.Column{Name: fmt.Sprintf("Attr%02d", i), Kind: types.KindString})
	}
	if _, err := db.CreateTable("K", types.NewSchema(kcols...)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	jrows := make([]types.Tuple, layerRows)
	for i := range jrows {
		t1 := int64(7000 + rng.Intn(1000))
		jrows[i] = types.Tuple{
			types.Int(int64(i / 4)), types.Int(rng.Int63n(employees)),
			types.Str(fmt.Sprintf("emp%05d", rng.Intn(employees))), types.Str(fmt.Sprintf("D%d", rng.Intn(8))),
			types.Float(float64(rng.Intn(5000)) / 100),
			types.Date(t1), types.Date(t1 + 1 + rng.Int63n(400)),
		}
	}
	krows := make([]types.Tuple, employees)
	for i := range krows {
		t := types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("emp%05d", i)), types.Str(fmt.Sprintf("%d Main St", i))}
		for a := 1; a <= 9; a++ {
			t = append(t, types.Str(fmt.Sprintf("attr%d-%d", a, rng.Intn(1000))))
		}
		krows[i] = t
	}
	if err := db.BulkLoad("J", jrows); err != nil {
		b.Fatal(err)
	}
	if err := db.BulkLoad("K", krows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkEngineJoin is the DBMS's join path alone, on the nested
// statements the middleware's SQL generator emits for a DBMS-resident
// join under a projection: S2 is the temporal self-join (an equi-join
// on PosID with an overlap residual, three columns kept, ordered), S3
// the regular join of J with the wide K that keeps three of 19
// columns.
func BenchmarkEngineJoin(b *testing.B) {
	db := joinDB(b)
	var kall []string
	for _, c := range []string{"EmpID", "EmpName", "Addr", "Attr01", "Attr02", "Attr03",
		"Attr04", "Attr05", "Attr06", "Attr07", "Attr08", "Attr09"} {
		kall = append(kall, "E."+c+" AS E$"+c)
	}
	for _, q := range []struct{ name, sql string }{
		{"S2", "SELECT * FROM (SELECT P_.A$PosID AS PosID, P_.A$EmpName AS EmpName, " +
			"P_.B$EmpName AS EmpName FROM (SELECT A.PosID AS A$PosID, A.EmpID AS A$EmpID, " +
			"A.EmpName AS A$EmpName, A.Dept AS A$Dept, A.PayRate AS A$PayRate, " +
			"GREATEST(A.T1, B.T1) AS A$T1, LEAST(A.T2, B.T2) AS A$T2, B.PosID AS B$PosID, " +
			"B.EmpID AS B$EmpID, B.EmpName AS B$EmpName, B.Dept AS B$Dept, " +
			"B.PayRate AS B$PayRate FROM J A, J B WHERE A.PosID = B.PosID AND " +
			"A.T1 < B.T2 AND A.T2 > B.T1) P_) Z_ ORDER BY PosID"},
		{"S3", "SELECT P_.P$PosID AS PosID, P_.E$EmpName AS EmpName, P_.E$Addr AS Addr " +
			"FROM (SELECT P.PosID AS P$PosID, P.EmpID AS P$EmpID, P.EmpName AS P$EmpName, " +
			"P.Dept AS P$Dept, P.PayRate AS P$PayRate, P.T1 AS P$T1, P.T2 AS P$T2, " +
			strings.Join(kall, ", ") + " FROM J P, K E WHERE P.EmpID = E.EmpID) P_"},
	} {
		b.Run(q.name, func(b *testing.B) {
			rows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := db.QueryAll(q.sql)
				if err != nil {
					b.Fatal(err)
				}
				if out.Schema.Len() != 3 || out.Cardinality() == 0 {
					b.Fatalf("%s: %d columns, %d rows", q.name, out.Schema.Len(), out.Cardinality())
				}
				rows += out.Cardinality()
			}
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
