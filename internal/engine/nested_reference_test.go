package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// refPos is one row of the reference tables' P (POSITION-like): Pay is
// NULL when payNull.
type refPos struct {
	pos, emp, t1, t2 int64
	name             string
	pay              float64
	payNull          bool
}

// refValue is the reference for a nullable float column.
func (r refPos) payValue() types.Value {
	if r.payNull {
		return types.Null
	}
	return types.Float(r.pay)
}

// refCompare orders values the way SQL ORDER BY does here, written
// independently of types.Compare: NULL first, numbers by value
// whatever their kind, strings bytewise.
func refCompare(a, b types.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	case a.Kind() == types.KindString:
		return strings.Compare(a.AsString(), b.AsString())
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// checkNested compares an engine result with reference rows: the same
// column names, the same multiset of rows, and, when keys is not nil,
// the same sequence of ORDER BY key values (keys are output columns,
// descs their directions).
func checkNested(t *testing.T, label string, got *rel.Relation, names []string, want []types.Tuple, keys []int, descs []bool) {
	t.Helper()
	if g := got.Schema.Names(); !slices.Equal(g, names) {
		t.Fatalf("%s: columns %v, want %v", label, g, names)
	}
	bag := map[string]int{}
	for _, r := range want {
		bag[r.String()]++
	}
	for _, r := range got.Tuples {
		bag[r.String()]--
	}
	for row, n := range bag {
		if n != 0 {
			t.Fatalf("%s: row %s off by %d (got %d rows, want %d)", label, row, -n, got.Cardinality(), len(want))
		}
	}
	if keys == nil {
		return
	}
	sorted := slices.Clone(want)
	slices.SortStableFunc(sorted, func(a, b types.Tuple) int {
		for i, k := range keys {
			c := refCompare(a[k], b[k])
			if descs[i] {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	for i := range sorted {
		for _, k := range keys {
			if refCompare(got.Tuples[i][k], sorted[i][k]) != 0 {
				t.Fatalf("%s: row %d key %d = %v, want %v", label, i, k, got.Tuples[i][k], sorted[i][k])
			}
		}
	}
}

// TestNestedShapesAgainstReference runs the nested statement shapes
// the middleware's SQL generator emits (Z_ ORDER BY and P_ projection
// wrappers over joins, duplicate output names), blocks that must not
// merge, COUNT(*), an index range on a pruned scan, every join hint
// and NULL and mixed int/float sort keys, over random tables, against
// a direct Go computation.
func TestNestedShapesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 12; trial++ {
		db := Open(Config{})
		for _, ddl := range []string{
			"CREATE TABLE P (PosID INTEGER, EmpID INTEGER, Name VARCHAR(10), Pay FLOAT, T1 INTEGER, T2 INTEGER)",
			"CREATE TABLE E (EmpID INTEGER, EName VARCHAR(10), Addr VARCHAR(10))",
		} {
			if _, err := db.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		ps := make([]refPos, 1+rng.Intn(120))
		for i := range ps {
			t1 := rng.Int63n(50)
			ps[i] = refPos{
				pos: rng.Int63n(15), emp: rng.Int63n(10), name: fmt.Sprintf("n%d", rng.Intn(30)),
				pay: float64(rng.Intn(40)) / 4, payNull: rng.Intn(5) == 0, t1: t1, t2: t1 + 1 + rng.Int63n(20),
			}
			r := ps[i]
			if err := db.Insert("P", types.Tuple{types.Int(r.pos), types.Int(r.emp), types.Str(r.name),
				r.payValue(), types.Int(r.t1), types.Int(r.t2)}); err != nil {
				t.Fatal(err)
			}
		}
		for e := int64(0); e < 8; e++ {
			if err := db.Insert("E", types.Tuple{types.Int(e), types.Str(fmt.Sprintf("e%d", e)),
				types.Str(fmt.Sprintf("a%d", e%3))}); err != nil {
				t.Fatal(err)
			}
		}
		for _, idx := range []string{"CREATE INDEX p_pos ON P (PosID)", "CREATE INDEX e_emp ON E (EmpID)"} {
			if _, err := db.Exec(idx); err != nil {
				t.Fatal(err)
			}
		}
		run := func(sql string) *rel.Relation {
			t.Helper()
			out, err := db.QueryAll(sql)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, sql, err)
			}
			return out
		}

		// The temporal self-join as the DBMS receives it: an overlap
		// residual, unused computed columns, duplicate output names,
		// under each join hint.
		var selfJoin []types.Tuple
		for _, a := range ps {
			for _, b := range ps {
				if a.pos == b.pos && a.t1 < b.t2 && a.t2 > b.t1 {
					selfJoin = append(selfJoin, types.Tuple{types.Int(a.pos), types.Str(a.name), types.Str(b.name)})
				}
			}
		}
		for _, hint := range []string{"", "/*+ USE_HASH */ ", "/*+ USE_NL */ ", "/*+ USE_MERGE */ "} {
			got := run("SELECT * FROM (SELECT P_.A$PosID AS PosID, P_.A$Name AS Name, P_.B$Name AS Name " +
				"FROM (SELECT " + hint + "A.PosID AS A$PosID, A.EmpID AS A$EmpID, A.Name AS A$Name, " +
				"GREATEST(A.T1, B.T1) AS A$T1, LEAST(A.T2, B.T2) AS A$T2, B.PosID AS B$PosID, " +
				"B.Name AS B$Name FROM P A, P B WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND " +
				"A.T2 > B.T1) P_) Z_ ORDER BY PosID")
			checkNested(t, fmt.Sprintf("trial %d self-join %q", trial, hint), got,
				[]string{"PosID", "Name", "Name"}, selfJoin, []int{0}, []bool{false})
		}

		// The regular join with the wide side mostly unused, unordered.
		var join []types.Tuple
		for _, p := range ps {
			if p.emp < 8 {
				join = append(join, types.Tuple{types.Int(p.pos), types.Str(fmt.Sprintf("e%d", p.emp))})
			}
		}
		for _, hint := range []string{"", "/*+ USE_NL */ ", "/*+ USE_MERGE */ "} {
			got := run("SELECT P_.P$PosID AS PosID, P_.E$EName AS EName FROM (SELECT " + hint +
				"P.PosID AS P$PosID, P.EmpID AS P$EmpID, P.Name AS P$Name, E.EmpID AS E$EmpID, " +
				"E.EName AS E$EName, E.Addr AS E$Addr FROM P P, E E WHERE P.EmpID = E.EmpID) P_")
			checkNested(t, fmt.Sprintf("trial %d join %q", trial, hint), got, []string{"PosID", "EName"}, join, nil, nil)
		}

		// Blocks that must not merge: inner DISTINCT, GROUP BY and
		// ORDER BY … LIMIT.
		var distinct []types.Tuple
		counts := map[int64]int64{}
		for _, p := range ps {
			if counts[p.pos] == 0 {
				distinct = append(distinct, types.Tuple{types.Int(p.pos)})
			}
			counts[p.pos]++
		}
		checkNested(t, fmt.Sprintf("trial %d distinct", trial),
			run("SELECT X.PosID FROM (SELECT DISTINCT PosID FROM P) X ORDER BY PosID"),
			[]string{"PosID"}, distinct, []int{0}, []bool{false})
		var groups []types.Tuple
		for pos, n := range counts {
			if n > 1 {
				groups = append(groups, types.Tuple{types.Int(pos), types.Int(n)})
			}
		}
		checkNested(t, fmt.Sprintf("trial %d group", trial),
			run("SELECT G.PosID, G.N FROM (SELECT PosID, COUNT(*) AS N FROM P GROUP BY PosID) G WHERE G.N > 1"),
			[]string{"PosID", "N"}, groups, nil, nil)
		sortedPos := make([]int64, len(ps))
		for i, p := range ps {
			sortedPos[i] = p.pos
		}
		slices.Sort(sortedPos)
		var top []types.Tuple
		for _, pos := range sortedPos[:min(5, len(sortedPos))] {
			top = append(top, types.Tuple{types.Int(pos)})
		}
		checkNested(t, fmt.Sprintf("trial %d limit", trial),
			run("SELECT L.PosID FROM (SELECT PosID FROM P ORDER BY PosID LIMIT 5) L"),
			[]string{"PosID"}, top, nil, nil)

		// COUNT(*) keeps no column, directly and through wrappers.
		n := []types.Tuple{{types.Int(int64(len(ps)))}}
		checkNested(t, fmt.Sprintf("trial %d count", trial), run("SELECT COUNT(*) FROM P"),
			[]string{"COUNT"}, n, nil, nil)
		checkNested(t, fmt.Sprintf("trial %d wrapped count", trial),
			run("SELECT COUNT(*) AS N FROM (SELECT P_.PosID AS PosID FROM (SELECT * FROM P) P_) Z_"),
			[]string{"N"}, n, nil, nil)

		// An index range on a scan that keeps two of six columns.
		cut := rng.Int63n(15)
		var ranged []types.Tuple
		for _, p := range ps {
			if p.pos < cut {
				ranged = append(ranged, types.Tuple{types.Str(p.name), types.Int(p.t2)})
			}
		}
		checkNested(t, fmt.Sprintf("trial %d index range", trial),
			run(fmt.Sprintf("SELECT * FROM (SELECT P.Name AS Name, P.T2 AS T2 FROM P P WHERE P.PosID < %d) Z_ ORDER BY Name, T2 DESC", cut)),
			[]string{"Name", "T2"}, ranged, []int{0, 1}, []bool{false, true})

		// NULL sort keys, and a key mixing floats with integers.
		var mixed []types.Tuple
		for _, p := range ps {
			m := types.Int(p.pos)
			if !p.payNull {
				m = types.Float(p.pay)
			}
			mixed = append(mixed, types.Tuple{types.Int(p.pos), p.payValue(), m})
		}
		for _, order := range []struct {
			by    string
			keys  []int
			descs []bool
		}{
			{"Pay, PosID", []int{1, 0}, []bool{false, false}},
			{"Pay DESC", []int{1}, []bool{true}},
			{"M DESC, PosID", []int{2, 0}, []bool{true, false}},
			{"M", []int{2}, []bool{false}},
		} {
			got := run("SELECT * FROM (SELECT P.PosID AS PosID, P.Pay AS Pay, COALESCE(P.Pay, P.PosID) AS M FROM P P) Z_ ORDER BY " + order.by)
			checkNested(t, fmt.Sprintf("trial %d order by %s", trial, order.by), got,
				[]string{"PosID", "Pay", "M"}, mixed, order.keys, order.descs)
		}
	}
}

// TestDerivedTablesMerge pins which blocks merge, through the operator
// series a metrics registry records: the generator's Z_ and P_
// wrappers leave no derived(…) operator and no stacked projection —
// the join projects — while an inner DISTINCT, GROUP BY or LIMIT block
// stays a derived table. A select list that picks every scanned column
// in order records no projection either.
func TestDerivedTablesMerge(t *testing.T) {
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE P (PosID INTEGER, Name VARCHAR(10), T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO P VALUES (1,'a',1,5),(1,'b',3,9),(2,'c',1,2)"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql string
		ops []string // operator series the statement records
	}{
		{sql: "SELECT * FROM (SELECT P_.A$PosID AS PosID, P_.B$Name AS Name FROM (SELECT A.PosID AS A$PosID, " +
			"A.Name AS A$Name, GREATEST(A.T1, B.T1) AS A$T1, B.Name AS B$Name FROM P A, P B " +
			"WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1) P_) Z_ ORDER BY PosID",
			ops: []string{"hashjoin", "scan(P)", "sort"}},
		{sql: "SELECT * FROM (SELECT P.PosID AS PosID FROM P P WHERE P.T1 < 3) Z_ ORDER BY PosID",
			ops: []string{"filter", "project", "scan(P)", "sort"}},
		{sql: "SELECT X.PosID FROM (SELECT DISTINCT PosID FROM P) X",
			ops: []string{"derived(X)", "distinct", "scan(P)"}},
		{sql: "SELECT G.N FROM (SELECT PosID, COUNT(*) AS N FROM P GROUP BY PosID) G",
			ops: []string{"derived(G)", "group", "project", "scan(P)"}},
		{sql: "SELECT L.PosID FROM (SELECT PosID FROM P LIMIT 2) L",
			ops: []string{"derived(L)", "limit", "scan(P)"}},
	} {
		reg := telemetry.NewRegistry()
		db.SetMetrics(reg)
		if _, err := db.QueryAll(tc.sql); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var ops []string
		for _, s := range reg.Snapshot() {
			if s.Name == "tango_operator_rows_total" && !slices.Contains(ops, s.Labels["op"]) {
				ops = append(ops, s.Labels["op"])
			}
		}
		slices.Sort(ops)
		if !slices.Equal(ops, tc.ops) {
			t.Errorf("%s:\noperators %v, want %v", tc.sql, ops, tc.ops)
		}
	}
	db.SetMetrics(nil)
}
