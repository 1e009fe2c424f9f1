package optimizer

import (
	"strings"
	"testing"

	"tango/internal/algebra"
	"tango/internal/cost"
	"tango/internal/meta"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/stats"
	"tango/internal/types"
)

type fixedCatalog map[string]types.Schema

func (c fixedCatalog) TableSchema(name string) (types.Schema, error) {
	if s, ok := c[strings.ToUpper(name)]; ok {
		return s, nil
	}
	return types.Schema{}, &noTable{name}
}

type noTable struct{ name string }

func (e *noTable) Error() string { return "no table " + e.name }

type fixedSource map[string]*meta.TableStats

func (s fixedSource) TableStats(table string, _ int) (*meta.TableStats, error) {
	if ts, ok := s[strings.ToUpper(table)]; ok {
		return ts, nil
	}
	return nil, &noTable{table}
}

func testCatalog() fixedCatalog {
	return fixedCatalog{
		"POSITION": types.NewSchema(
			types.Column{Name: "PosID", Kind: types.KindInt},
			types.Column{Name: "EmpName", Kind: types.KindString},
			types.Column{Name: "PayRate", Kind: types.KindFloat},
			types.Column{Name: "T1", Kind: types.KindInt},
			types.Column{Name: "T2", Kind: types.KindInt},
		),
	}
}

func testSource() fixedSource {
	return fixedSource{
		"POSITION": {
			Table: "POSITION", Cardinality: 80000, AvgTupleSize: 60, Blocks: 600,
			Columns: map[string]*meta.ColumnStats{
				"POSID":   {Name: "PosID", Distinct: 2000, Min: types.Int(1), Max: types.Int(2000)},
				"PAYRATE": {Name: "PayRate", Distinct: 50, Min: types.Float(5), Max: types.Float(60)},
				"T1":      {Name: "T1", Distinct: 5000, Min: types.Int(4000), Max: types.Int(11000)},
				"T2":      {Name: "T2", Distinct: 5000, Min: types.Int(4100), Max: types.Int(11300)},
			},
		},
	}
}

func newOptimizer() *Optimizer {
	cat := testCatalog()
	est := stats.NewEstimator(cat, testSource())
	return New(cat, cost.NewModel(est))
}

// query1Initial is the paper's Query 1 initial plan: temporal
// aggregation entirely in the DBMS with a T^M on top.
func query1Initial() *algebra.Node {
	proj := algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "T1", "T2")
	taggr := algebra.TAggr(proj, []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	return algebra.TM(algebra.Sort(taggr, "PosID"))
}

func TestOptimizeQuery1MovesAggregationToMiddleware(t *testing.T) {
	o := newOptimizer()
	res, err := o.Optimize(query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best plan")
	}
	// The chosen plan must run TAGGR in the middleware: the paper's
	// Figure 8 shows the DBMS variant is ~10x slower, and the default
	// cost factors encode that.
	foundMWAggr := false
	res.Best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpTAggr && n.Loc() == algebra.LocMW {
			foundMWAggr = true
		}
	})
	if !foundMWAggr {
		t.Errorf("best plan keeps TAGGR in the DBMS:\n%s", res.Best)
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best plan invalid: %v", err)
	}
	if res.Classes <= 0 || res.Elements < res.Classes {
		t.Errorf("memo accounting: %d classes, %d elements", res.Classes, res.Elements)
	}
	if len(res.Candidates) < 3 {
		t.Errorf("expected several candidates, got %d", len(res.Candidates))
	}
	// Candidates are sorted by cost.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Cost < res.Candidates[i-1].Cost {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestHeuristicGroup1Disabled(t *testing.T) {
	o := newOptimizer()
	o.DisabledGroups = map[int]bool{1: true}
	res, err := o.Optimize(query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	// Without the move-to-middleware rules the plan must stay a
	// stratum-style all-DBMS plan.
	res.Best.Walk(func(n *algebra.Node) {
		if n.Loc() == algebra.LocMW && n.Op != algebra.OpTM {
			t.Errorf("operator %v in middleware despite disabled group 1", n.Op)
		}
	})
}

func TestSortEliminatedWhenOrderSatisfied(t *testing.T) {
	// TAGGR^M preserves (PosID, T1) order, so the top sort on PosID is
	// redundant in the middleware plan; T10 should let the optimizer
	// find a plan without a final sort.
	o := newOptimizer()
	res, err := o.Optimize(query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	sortCount := 0
	best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSort && n.Loc() == algebra.LocMW {
			sortCount++
		}
	})
	if sortCount > 0 {
		t.Errorf("best plan has %d middleware sorts; T10 should remove them:\n%s", sortCount, best)
	}
}

func TestOrderComputation(t *testing.T) {
	scan := algebra.Scan("POSITION", "")
	if o := Order(scan); o != nil {
		t.Errorf("scan order = %v", o)
	}
	s := algebra.Sort(scan, "PosID", "T1")
	if o := Order(s); len(o) != 2 || o[0] != "PosID" {
		t.Errorf("sort order = %v", o)
	}
	tm := algebra.TM(s)
	if o := Order(tm); len(o) != 2 {
		t.Errorf("TM should preserve order: %v", o)
	}
	taggr := algebra.TAggr(tm, []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	if o := Order(taggr); len(o) != 2 || !strings.EqualFold(o[1], "T1") {
		t.Errorf("TAGGR^M order = %v", o)
	}
	td := algebra.TD(taggr)
	if o := Order(td); o != nil {
		t.Errorf("TD should destroy order: %v", o)
	}
}

func TestRuleT7T8Collapse(t *testing.T) {
	scan := algebra.Scan("POSITION", "")
	tmtd := algebra.TM(algebra.TD(algebra.TM(scan)))
	if out := ruleT7(tmtd); len(out) != 1 || out[0].Op != algebra.OpTM {
		t.Errorf("T7: %v", out)
	}
	tdtm := algebra.TD(algebra.TM(scan))
	if out := ruleT8(tdtm); len(out) != 1 || out[0].Op != algebra.OpScan {
		t.Errorf("T8: %v", out)
	}
}

func TestRuleT1Shape(t *testing.T) {
	taggr := algebra.TAggr(algebra.Scan("POSITION", ""), []string{"PosID"},
		algebra.Agg{Fn: "COUNT", Col: "PosID"})
	out := ruleT1(taggr)
	if len(out) != 1 {
		t.Fatalf("T1 fired %d times", len(out))
	}
	p := out[0]
	// Shape: TD(TAggr(TM(Sort(scan)))).
	if p.Op != algebra.OpTD || p.Left.Op != algebra.OpTAggr ||
		p.Left.Left.Op != algebra.OpTM || p.Left.Left.Left.Op != algebra.OpSort {
		t.Fatalf("T1 shape:\n%s", p)
	}
	keys := p.Left.Left.Left.Keys
	if len(keys) != 2 || keys[0] != "PosID" || keys[1] != "T1" {
		t.Errorf("T1 sort keys = %v", keys)
	}
	// T1 must not fire on a middleware-resident aggregation.
	mwAggr := algebra.TAggr(algebra.TM(algebra.Scan("POSITION", "")), []string{"PosID"})
	if out := ruleT1(mwAggr); out != nil {
		t.Error("T1 fired on MW-resident TAggr")
	}
}

func TestRuleE2Commute(t *testing.T) {
	rule := joinCommute(testCatalog())
	j := algebra.Join(algebra.Scan("POSITION", "A"), algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	out := rule(j)
	if len(out) != 1 {
		t.Fatalf("E2 fired %d times", len(out))
	}
	// Shape: Project restoring order over the swapped join.
	p := out[0]
	if p.Op != algebra.OpProject || p.Left.Op != algebra.OpJoin {
		t.Fatalf("E2 shape:\n%s", p)
	}
	if p.Left.Left.Alias != "B" || p.Left.LeftCols[0] != "B.PosID" {
		t.Errorf("E2 swap wrong: %+v", p.Left)
	}
	// Schemas must agree exactly.
	s1, err := j.Schema(testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Schema(testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Errorf("E2 changes schema: %v vs %v", s1.Names(), s2.Names())
	}
	// An unaliased self-join (colliding names) must be skipped.
	selfJoin := algebra.Join(algebra.Scan("POSITION", ""), algebra.Scan("POSITION", ""),
		[]string{"PosID"}, []string{"PosID"})
	if out := rule(selfJoin); out != nil {
		t.Error("E2 fired on colliding column names")
	}
}

func TestSelectPushdownBelowJoin(t *testing.T) {
	cat := testCatalog()
	rule := selectBelowJoin(cat)
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE B.PayRate > 10")
	if err != nil {
		t.Fatal(err)
	}
	j := algebra.TJoin(
		algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2"),
		algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	n := algebra.Select(j, sel.Where)
	out := rule(n)
	if len(out) != 1 {
		t.Fatalf("pushdown fired %d times", len(out))
	}
	if out[0].Op != algebra.OpTJoin || out[0].Right.Op != algebra.OpSelect {
		t.Errorf("pushdown shape:\n%s", out[0])
	}
	// Predicates over the intersected period must not move.
	sel2, _ := sqlparser.ParseSelect("SELECT 1 WHERE T1 < 100")
	n2 := algebra.Select(j, sel2.Where)
	if out := rule(n2); out != nil {
		t.Error("time predicate pushed below temporal join")
	}
}

func TestRenamePredRoundTrip(t *testing.T) {
	sel, _ := sqlparser.ParseSelect("SELECT 1 WHERE A.PayRate > 10")
	cols := []algebra.ProjCol{{Src: "A.PayRate", As: "Rate"}, {Src: "A.PosID"}}
	renamed := renamePred(sel.Where, cols)
	if !strings.Contains(renamed.String(), "Rate") {
		t.Errorf("rename failed: %s", renamed)
	}
	back, ok := unrenamePred(renamed, cols)
	if !ok || !strings.Contains(back.String(), "A.PayRate") {
		t.Errorf("unrename failed: %v %v", back, ok)
	}
	// A predicate referencing a non-output cannot be unrenamed.
	sel3, _ := sqlparser.ParseSelect("SELECT 1 WHERE Missing > 1")
	if _, ok := unrenamePred(sel3.Where, cols); ok {
		t.Error("unrename should fail on missing column")
	}
	_ = sqlast.Expr(nil)
}

func TestMemoAccountingGrows(t *testing.T) {
	o := newOptimizer()
	simple := algebra.TM(algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID"))
	res1, err := o.Optimize(simple)
	if err != nil {
		t.Fatal(err)
	}
	o2 := newOptimizer()
	res2, err := o2.Optimize(query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Elements <= res1.Elements {
		t.Errorf("richer query should have more elements: %d vs %d", res2.Elements, res1.Elements)
	}
}

func TestCandidatesAllExecutableShapes(t *testing.T) {
	o := newOptimizer()
	res, err := o.Optimize(query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if err := c.Plan.Validate(); err != nil {
			t.Errorf("candidate invalid: %v\n%s", err, c.Plan)
		}
		if c.Plan.Loc() != algebra.LocMW {
			t.Errorf("candidate root not in middleware:\n%s", c.Plan)
		}
	}
}

func TestOptimizationDeterministic(t *testing.T) {
	keys := map[string]bool{}
	for i := 0; i < 3; i++ {
		o := newOptimizer()
		res, err := o.Optimize(query1Initial())
		if err != nil {
			t.Fatal(err)
		}
		keys[res.Best.Key()] = true
	}
	if len(keys) != 1 {
		t.Errorf("optimization not deterministic: %d distinct best plans", len(keys))
	}
}

func TestMaxPlansCapRespected(t *testing.T) {
	o := newOptimizer()
	o.MaxPlans = 5
	res, err := o.Optimize(query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) > 5 {
		t.Errorf("cap exceeded: %d candidates", len(res.Candidates))
	}
}

func TestProjectionCompositionAndIdentity(t *testing.T) {
	cat := testCatalog()
	scan := algebra.Scan("POSITION", "A")
	inner := algebra.Project(scan, algebra.ProjCol{Src: "A.PosID", As: "P"}, algebra.ProjCol{Src: "A.T1"})
	outer := algebra.Project(inner, algebra.ProjCol{Src: "T1", As: "Start"}, algebra.ProjCol{Src: "P"})
	out := composeProjections(cat)(outer)
	if len(out) != 1 || out[0].Op != algebra.OpProject || out[0].Left.Op != algebra.OpScan {
		t.Fatalf("composition shape: %v", out)
	}
	want, err := outer.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out[0].Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) || got.Cols[0].Name != "Start" || out[0].Cols[0].Src != "A.T1" {
		t.Errorf("composed projection %v gives %v, want %v", out[0].Cols, got.Names(), want.Names())
	}

	// E2's column-restoring projection over the re-commuted join is an
	// identity once composed, and drops out.
	schema, err := scan.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	var cols []algebra.ProjCol
	for _, c := range schema.Cols {
		cols = append(cols, algebra.ProjCol{Src: c.Name, As: c.Name})
	}
	if out := dropIdentityProjection(cat)(algebra.Project(scan, cols...)); len(out) != 1 || out[0].Op != algebra.OpScan {
		t.Errorf("identity projection kept: %v", out)
	}
	if out := dropIdentityProjection(cat)(algebra.Project(scan, cols[1:]...)); out != nil {
		t.Error("a narrowing projection is not an identity")
	}
	renamed := append([]algebra.ProjCol{{Src: cols[0].Src, As: "X"}}, cols[1:]...)
	if out := dropIdentityProjection(cat)(algebra.Project(scan, renamed...)); out != nil {
		t.Error("a renaming projection is not an identity")
	}
}
