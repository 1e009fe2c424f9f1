// Package optimizer implements TANGO's query optimizer: the paper's
// Volcano-style optimizer over the middleware algebra. The
// transformation rules are the paper's T1–T12 heuristics and E1–E5
// equivalences (§4); they populate a memo of equivalence classes
// (groups) and class elements (group expressions), which is then
// costed bottom-up with the cost model. The optimizer reports its
// class and element counts the way the paper does for each experiment
// query.
package optimizer

import (
	"strings"

	"tango/internal/algebra"
	"tango/internal/eval"
	"tango/internal/sqlast"
	"tango/internal/types"
)

// Rule is one transformation: given a subtree root, it returns zero or
// more rewritten subtree roots (freshly cloned). In the memo the
// subtree is a binding: the operator of a group expression over group
// reference leaves, with Depth−1 levels of its left input bound to
// concrete group expressions.
type Rule struct {
	Name  string
	Group int // heuristic group (1, 2, 4) or 0 for equivalences
	// Depth is how many operator levels, along the left input, the
	// rule inspects: 1 = the operator alone, 2 = also its input's
	// operator, 3 = one level further down.
	Depth int
	Apply func(n *algebra.Node) []*algebra.Node
}

// DefaultRules returns the rule set of §4. The catalog is needed by
// rules that resolve input schemas (the group-4 pushdowns, E2's
// column-restoring projection). T10, dropping a sort whose input is
// already ordered, is not a rewrite here: sort order is a physical
// property, and the costing elides such sorts (winner.go).
func DefaultRules(cat algebra.Catalog) []Rule {
	return []Rule{
		{Name: "T1-taggr-to-mw", Group: 1, Depth: 1, Apply: ruleT1},
		{Name: "T2-join-to-mw", Group: 1, Depth: 1, Apply: ruleT2},
		{Name: "T3-tjoin-to-mw", Group: 1, Depth: 1, Apply: ruleT3},
		{Name: "T4-select-above-tm", Group: 1, Depth: 2, Apply: ruleT4},
		{Name: "T5-project-above-tm", Group: 1, Depth: 2, Apply: ruleT5},
		{Name: "T6-sort-above-tm", Group: 1, Depth: 2, Apply: ruleT6},
		{Name: "T7-collapse-tm-td", Group: 2, Depth: 2, Apply: ruleT7},
		{Name: "T8-collapse-td-tm", Group: 2, Depth: 2, Apply: ruleT8},
		{Name: "T11-drop-sort-before-td", Group: 2, Depth: 2, Apply: ruleT11},
		{Name: "T12-collapse-sorts", Group: 2, Depth: 2, Apply: ruleT12},
		{Name: "E1-project-select-commute", Group: 0, Depth: 2, Apply: ruleE1},
		{Name: "E2-join-commute", Group: 0, Depth: 1, Apply: joinCommute(cat)},
		{Name: "E4-sort-select-commute", Group: 0, Depth: 2, Apply: ruleE4},
		{Name: "E5-sort-project-commute", Group: 0, Depth: 2, Apply: ruleE5},
		{Name: "P1-compose-projections", Group: 0, Depth: 2, Apply: composeProjections(cat)},
		{Name: "P2-drop-identity-projection", Group: 0, Depth: 1, Apply: dropIdentityProjection(cat)},
		{Name: "G4-select-below-join", Group: 4, Depth: 2, Apply: selectBelowJoin(cat)},
		{Name: "G4-narrow-taggr-input", Group: 4, Depth: 2, Apply: narrowTAggrInput(cat)},
		{Name: "T5r-project-below-tm", Group: 4, Depth: 3, Apply: ruleProjectBelowTM},
		{Name: "TC1-coalesce-to-mw", Group: 1, Depth: 1, Apply: coalesceToMW(cat)},
		{Name: "TD1-dupelim-to-mw", Group: 1, Depth: 1, Apply: ruleDupElimToMW},
		{Name: "VC1-select-coalesce-commute", Group: 0, Depth: 2, Apply: ruleSelectCoalesce},
	}
}

// composeProjections merges stacked projections:
// π_a(π_b(r)) ≡L π_{a∘b}(r), each output of a reading its source
// through b. Without it, every E2 commute adds one more
// column-restoring projection and the search space never closes.
func composeProjections(cat algebra.Catalog) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpProject || n.Left.Op != algebra.OpProject {
			return nil
		}
		inner, err := n.Left.Schema(cat)
		if err != nil {
			return nil
		}
		cols := make([]algebra.ProjCol, len(n.Cols))
		for i, pc := range n.Cols {
			j := inner.ColumnIndex(pc.Src)
			if j < 0 {
				return nil
			}
			cols[i] = algebra.ProjCol{Src: n.Left.Cols[j].Src, As: pc.Out()}
		}
		return []*algebra.Node{algebra.Project(n.Left.Left.Clone(), cols...)}
	}
}

// dropIdentityProjection removes a projection that keeps every input
// column, in order, under its own name: π(r) ≡L r.
func dropIdentityProjection(cat algebra.Catalog) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpProject {
			return nil
		}
		in, err := n.Left.Schema(cat)
		if err != nil || len(n.Cols) != in.Len() {
			return nil
		}
		for i, pc := range n.Cols {
			if pc.Out() != in.Cols[i].Name || in.ColumnIndex(pc.Src) != i {
				return nil
			}
		}
		return []*algebra.Node{n.Left.Clone()}
	}
}

// coalesceToMW moves a DBMS-resident coalescing to the middleware —
// mandatory, since coalescing has no SQL translation (the paper lists
// it among the operators "that may later be added to TANGO"):
// coal(r) →M T^D(coal(T^M(sort_{attrs,T1}(r)))). COALESCE^M requires
// its input sorted on all non-time attributes and T1.
func coalesceToMW(cat algebra.Catalog) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpCoalesce || n.Loc() != algebra.LocDBMS {
			return nil
		}
		schema, err := n.Left.Schema(cat)
		if err != nil {
			return nil
		}
		t1, t2 := algebra.TimeColumns(schema)
		if t1 < 0 || t2 < 0 {
			return nil
		}
		var keys []string
		for i, c := range schema.Cols {
			if i != t1 && i != t2 {
				keys = append(keys, c.Name)
			}
		}
		keys = append(keys, schema.Cols[t1].Name)
		moved := algebra.TD(algebra.Coalesce(
			algebra.TM(algebra.Sort(n.Left.Clone(), keys...))))
		return []*algebra.Node{moved}
	}
}

// ruleDupElimToMW offers a middleware alternative for duplicate
// elimination (hash-based, no sort requirement):
// rdup(r) →M T^D(rdup(T^M(r))).
func ruleDupElimToMW(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpDupElim || n.Loc() != algebra.LocDBMS {
		return nil
	}
	return []*algebra.Node{
		algebra.TD(algebra.DupElim(algebra.TM(n.Left.Clone()))),
	}
}

// ruleSelectCoalesce adopts Vassilakis's coalesce/selection
// optimization (§6 of the paper): a non-temporal selection commutes
// with coalescing, σ_P(coal(r)) ≡ coal(σ_P(r)), letting the selection
// shrink the coalescing argument. Predicates over T1/T2 must not move:
// coalescing changes the periods.
func ruleSelectCoalesce(n *algebra.Node) []*algebra.Node {
	timeFree := func(pred sqlast.Expr) bool {
		for _, c := range eval.ExprColumns(pred) {
			u := strings.ToUpper(algebra.Unqualify(c))
			if u == "T1" || u == "T2" {
				return false
			}
		}
		return true
	}
	var out []*algebra.Node
	if n.Op == algebra.OpSelect && n.Left.Op == algebra.OpCoalesce && timeFree(n.Pred) {
		out = append(out, algebra.Coalesce(algebra.Select(n.Left.Left.Clone(), n.Pred)))
	}
	if n.Op == algebra.OpCoalesce && n.Left.Op == algebra.OpSelect && timeFree(n.Left.Pred) {
		out = append(out, algebra.Select(algebra.Coalesce(n.Left.Left.Clone()), n.Left.Pred))
	}
	return out
}

// ruleT1 moves a DBMS-resident temporal aggregation to the middleware:
// ξ(r) →M T^D(ξ(T^M(sort_{G,T1}(r)))). The sort feeds the TAGGR^M
// requirement of §3.4.
func ruleT1(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTAggr || n.Loc() != algebra.LocDBMS {
		return nil
	}
	keys := append(append([]string{}, n.GroupBy...), "T1")
	moved := algebra.TD(algebra.TAggr(
		algebra.TM(algebra.Sort(n.Left.Clone(), keys...)),
		append([]string{}, n.GroupBy...),
		append([]algebra.Agg{}, n.Aggs...)...))
	return []*algebra.Node{moved}
}

// ruleT2 moves a DBMS join to the middleware as a sort-merge join:
// r1 ⋈ r2 →M T^D(T^M(sort_{a1}(r1)) ⋈ T^M(sort_{a2}(r2))).
func ruleT2(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpJoin || n.Loc() != algebra.LocDBMS {
		return nil
	}
	moved := algebra.TD(algebra.Join(
		algebra.TM(algebra.Sort(n.Left.Clone(), n.LeftCols...)),
		algebra.TM(algebra.Sort(n.Right.Clone(), n.RightCols...)),
		append([]string{}, n.LeftCols...),
		append([]string{}, n.RightCols...)))
	return []*algebra.Node{moved}
}

// ruleT3 is T2 for temporal joins.
func ruleT3(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTJoin || n.Loc() != algebra.LocDBMS {
		return nil
	}
	moved := algebra.TD(algebra.TJoin(
		algebra.TM(algebra.Sort(n.Left.Clone(), n.LeftCols...)),
		algebra.TM(algebra.Sort(n.Right.Clone(), n.RightCols...)),
		append([]string{}, n.LeftCols...),
		append([]string{}, n.RightCols...)))
	return []*algebra.Node{moved}
}

// ruleT4: T^M(σ_P(r)) →M σ_P(T^M(r)) — evaluate the selection in the
// middleware instead.
func ruleT4(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTM || n.Left.Op != algebra.OpSelect {
		return nil
	}
	return []*algebra.Node{
		algebra.Select(algebra.TM(n.Left.Left.Clone()), n.Left.Pred),
	}
}

// ruleT5: T^M(π(r)) →M π(T^M(r)).
func ruleT5(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTM || n.Left.Op != algebra.OpProject {
		return nil
	}
	return []*algebra.Node{
		algebra.Project(algebra.TM(n.Left.Left.Clone()), append([]algebra.ProjCol{}, n.Left.Cols...)...),
	}
}

// ruleT6: T^M(sort_A(r)) →L sort_A(T^M(r)) — list equivalence because
// T^M preserves order.
func ruleT6(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTM || n.Left.Op != algebra.OpSort {
		return nil
	}
	return []*algebra.Node{
		algebra.Sort(algebra.TM(n.Left.Left.Clone()), append([]string{}, n.Left.Keys...)...),
	}
}

// ruleT7: T^M(T^D(r)) →M r.
func ruleT7(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTM || n.Left.Op != algebra.OpTD {
		return nil
	}
	return []*algebra.Node{n.Left.Left.Clone()}
}

// ruleT8: T^D(T^M(r)) →M r.
func ruleT8(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTD || n.Left.Op != algebra.OpTM {
		return nil
	}
	return []*algebra.Node{n.Left.Left.Clone()}
}

// ruleT11: sort_A(r) →M r when the order is destroyed immediately
// anyway — we apply the paper's multiset-equivalence sort elimination
// in its one always-safe spot: a sort directly under a T^D (loading
// into a DBMS table discards order).
func ruleT11(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTD || n.Left.Op != algebra.OpSort {
		return nil
	}
	return []*algebra.Node{algebra.TD(n.Left.Left.Clone())}
}

// ruleT12: sort_A(sort_B(r)) →L sort_A(r) when B is a prefix of A.
func ruleT12(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpSort || n.Left.Op != algebra.OpSort {
		return nil
	}
	if isPrefixOf(n.Left.Keys, n.Keys) {
		return []*algebra.Node{algebra.Sort(n.Left.Left.Clone(), n.Keys...)}
	}
	return nil
}

// ruleE1: π(σ_P(r)) ≡L σ_P(π(r)), left-to-right only when the
// predicate's attributes survive the projection; both directions
// generated where legal.
func ruleE1(n *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	if n.Op == algebra.OpProject && n.Left.Op == algebra.OpSelect {
		// π(σ(r)) → σ(π(r)) requires attrs(P) ⊆ projected outputs.
		if predColsSurvive(n.Left.Pred, n.Cols) {
			out = append(out, algebra.Select(
				algebra.Project(n.Left.Left.Clone(), append([]algebra.ProjCol{}, n.Cols...)...),
				renamePred(n.Left.Pred, n.Cols)))
		}
	}
	if n.Op == algebra.OpSelect && n.Left.Op == algebra.OpProject {
		// σ(π(r)) → π(σ(r)): rewrite the predicate to source names.
		if pred, ok := unrenamePred(n.Pred, n.Left.Cols); ok {
			out = append(out, algebra.Project(
				algebra.Select(n.Left.Left.Clone(), pred),
				append([]algebra.ProjCol{}, n.Left.Cols...)...))
		}
	}
	return out
}

// joinCommute is E2: r1 ⋈ r2 ≡M r2 ⋈ r1. Commuting swaps the output
// column order, so the rewrite wraps the swapped join in a projection
// restoring the original order — making the plans equivalent as
// relations, not merely up to column permutation. The rule skips
// inputs whose schemas cannot be resolved or whose column names
// collide (an unaliased self-join).
func joinCommute(cat algebra.Catalog) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpJoin {
			return nil
		}
		orig, err := n.Schema(cat)
		if err != nil {
			return nil
		}
		seen := map[string]bool{}
		cols := make([]algebra.ProjCol, orig.Len())
		for i, c := range orig.Cols {
			key := strings.ToUpper(c.Name)
			if seen[key] {
				return nil
			}
			seen[key] = true
			cols[i] = algebra.ProjCol{Src: c.Name, As: c.Name}
		}
		swapped := algebra.Join(
			n.Right.Clone(), n.Left.Clone(),
			append([]string{}, n.RightCols...),
			append([]string{}, n.LeftCols...))
		return []*algebra.Node{algebra.Project(swapped, cols...)}
	}
}

// ruleE4: sort_A(σ_P(r)) ≡L σ_P(sort_A(r)); used only when the
// operations are middleware-resident (the paper's restriction).
func ruleE4(n *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	if n.Op == algebra.OpSort && n.Left.Op == algebra.OpSelect && n.Loc() == algebra.LocMW {
		out = append(out, algebra.Select(
			algebra.Sort(n.Left.Left.Clone(), append([]string{}, n.Keys...)...),
			n.Left.Pred))
	}
	if n.Op == algebra.OpSelect && n.Left.Op == algebra.OpSort && n.Loc() == algebra.LocMW {
		out = append(out, algebra.Sort(
			algebra.Select(n.Left.Left.Clone(), n.Pred),
			append([]string{}, n.Left.Keys...)...))
	}
	return out
}

// narrowTAggrInput is the paper's "reduce the arguments of expensive
// operations" applied to projection: temporal aggregation needs only
// its grouping columns, aggregate columns, and the period; extra input
// columns only inflate sorts and transfers. The rule inserts that
// projection directly below the aggregation; E5/T5r then push it
// toward the scan.
func narrowTAggrInput(cat algebra.Catalog) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpTAggr {
			return nil
		}
		if n.Left.Op == algebra.OpProject {
			return nil // already narrowed (or user-projected)
		}
		in, err := n.Left.Schema(cat)
		if err != nil {
			return nil
		}
		needed := map[int]bool{}
		keep := func(col string) bool {
			j := in.ColumnIndex(col)
			if j < 0 {
				return false
			}
			needed[j] = true
			return true
		}
		for _, g := range n.GroupBy {
			if !keep(g) {
				return nil
			}
		}
		for _, a := range n.Aggs {
			if !keep(a.Col) {
				return nil
			}
		}
		t1, t2 := algebra.TimeColumns(in)
		if t1 < 0 || t2 < 0 {
			return nil
		}
		needed[t1], needed[t2] = true, true
		if len(needed) >= in.Len() {
			return nil // nothing to trim
		}
		var cols []algebra.ProjCol
		for i, c := range in.Cols {
			if needed[i] {
				cols = append(cols, algebra.ProjCol{Src: c.Name, As: c.Name})
			}
		}
		out := n.Clone()
		out.Left = algebra.Project(n.Left.Clone(), cols...)
		return []*algebra.Node{out}
	}
}

// ruleProjectBelowTM is T5 read right-to-left: π(T^M(r)) →M T^M(π(r)),
// pushing a projection into the DBMS so the transfer ships fewer
// bytes. (The paper notes that introducing projections into DBMS parts
// helps the optimizer estimate — and here reduce — transfer costs.)
//
// When the DBMS subtree is topped by a sort, the projection must land
// BELOW it — T^M only preserves order when the sort stays on top of
// the translated SQL (it becomes the statement's ORDER BY). Burying
// the sort under a projection would silently drop the order a
// downstream TAGGR^M or merge join depends on; the rule therefore only
// fires when the sort keys survive the projection, and keeps the sort
// outermost.
func ruleProjectBelowTM(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpProject || n.Left.Op != algebra.OpTM {
		return nil
	}
	inner := n.Left.Left
	cols := append([]algebra.ProjCol{}, n.Cols...)
	if inner.Op != algebra.OpSort {
		return []*algebra.Node{algebra.TM(algebra.Project(inner.Clone(), cols...))}
	}
	keys, ok := outputKeys(inner.Keys, cols)
	if !ok {
		return nil // a sort key would not survive the projection
	}
	return []*algebra.Node{
		algebra.TM(algebra.Sort(algebra.Project(inner.Left.Clone(), cols...), keys...)),
	}
}

// ruleE5: sort_A(π(r)) ≡L π(sort_A(r)). The paper restricts E4/E5 to
// middleware-resident operations except where a rewrite helps the
// optimizer estimate DBMS costs — pushing projections below sorts
// changes (and reduces) estimated transfer sizes, so the
// project-below-sort direction is allowed in both locations.
func ruleE5(n *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	if n.Op == algebra.OpSort && n.Left.Op == algebra.OpProject && n.Loc() == algebra.LocMW {
		// Keys are output names; translate them to source names.
		if keys, ok := sourceKeys(n.Keys, n.Left.Cols); ok {
			out = append(out, algebra.Project(
				algebra.Sort(n.Left.Left.Clone(), keys...),
				append([]algebra.ProjCol{}, n.Left.Cols...)...))
		}
	}
	if n.Op == algebra.OpProject && n.Left.Op == algebra.OpSort {
		// π(sort_A(r)) → sort_A'(π(r)) requires A to survive the
		// projection under its output name. Allowed in both locations
		// (see the doc comment above).
		if keys, ok := outputKeys(n.Left.Keys, n.Cols); ok {
			out = append(out, algebra.Sort(
				algebra.Project(n.Left.Left.Clone(), append([]algebra.ProjCol{}, n.Cols...)...),
				keys...))
		}
	}
	return out
}

// selectBelowJoin is a heuristic-group-4 rewrite ("reduce the
// arguments of expensive operations"): σ_P(r1 ⋈ r2) is rewritten to
// push P into the join input that can resolve all its columns,
// shrinking the expensive operator's argument.
func selectBelowJoin(cat algebra.Catalog) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpSelect {
			return nil
		}
		j := n.Left
		if j.Op != algebra.OpJoin && j.Op != algebra.OpTJoin {
			return nil
		}
		cols := eval.ExprColumns(n.Pred)
		if j.Op == algebra.OpTJoin {
			// The temporal join replaces T1/T2 with the intersected
			// period; predicates over them cannot move below it.
			for _, c := range cols {
				u := strings.ToUpper(algebra.Unqualify(c))
				if u == "T1" || u == "T2" {
					return nil
				}
			}
		}
		resolves := func(in *algebra.Node) bool {
			schema, err := in.Schema(cat)
			if err != nil {
				return false
			}
			for _, c := range cols {
				if schema.ColumnIndex(c) < 0 {
					return false
				}
			}
			return true
		}
		mk := func(left, right *algebra.Node) *algebra.Node {
			out := j.Clone()
			out.Left, out.Right = left, right
			return out
		}
		var rewrites []*algebra.Node
		if resolves(j.Left) {
			rewrites = append(rewrites, mk(algebra.Select(j.Left.Clone(), n.Pred), j.Right.Clone()))
		}
		if resolves(j.Right) {
			rewrites = append(rewrites, mk(j.Left.Clone(), algebra.Select(j.Right.Clone(), n.Pred)))
		}
		return rewrites
	}
}

// --- helpers ---

// Order computes the output order of a subtree (column names), the
// paper's Order(r). Middleware algorithms preserve order. In the DBMS,
// order exists only through the statement's final ORDER BY: a sort is
// authoritative exactly when it is the topmost operator the SQL
// translation sees, so any DBMS-resident operator ABOVE a sort
// destroys the guarantee (the translator skips mid-plan sorts, as real
// DBMSs give no order promises on subqueries).
func Order(n *algebra.Node) []string {
	if n == nil {
		return nil
	}
	var in []string
	if n.Left != nil && n.Op != algebra.OpSort {
		in = Order(n.Left)
	}
	return outputOrder(n, in)
}

// outputOrder is the order an operator delivers given the order of its
// (left) input.
func outputOrder(n *algebra.Node, in []string) []string {
	switch n.Op {
	case algebra.OpSort:
		// Authoritative where directly consumed: a MW sort always
		// orders; a DBMS sort orders its consumer only when nothing
		// DBMS-resident sits above it, which the cases below enforce by
		// refusing to propagate order through DBMS operators.
		return n.Keys
	case algebra.OpTAggr:
		// TAGGR^M emits groups in input group order with ascending T1.
		if n.Loc() == algebra.LocMW {
			return taggrOrder(n)
		}
		return nil
	case algebra.OpTM:
		return in
	case algebra.OpSelect, algebra.OpDupElim, algebra.OpCoalesce:
		if n.Loc() == algebra.LocDBMS {
			return nil // would bury any sort below it in the SQL
		}
		return in
	case algebra.OpProject:
		if n.Loc() == algebra.LocDBMS {
			return nil
		}
		// Order survives if its columns survive the projection.
		var out []string
		for _, k := range in {
			kept := ""
			for _, pc := range n.Cols {
				if strings.EqualFold(pc.Src, k) || strings.EqualFold(algebra.Unqualify(pc.Src), algebra.Unqualify(k)) {
					kept = pc.Out()
					break
				}
			}
			if kept == "" {
				break
			}
			out = append(out, kept)
		}
		return out
	case algebra.OpJoin, algebra.OpTJoin:
		if n.Loc() == algebra.LocMW {
			return in // merge joins follow the left input
		}
		return nil
	default: // scans, T^D (loading a table discards order), group references
		return nil
	}
}

// outputDupFree reports whether an operator's output is provably free
// of duplicates given whether its (left) input is — the annotation
// planck derives.
func outputDupFree(n *algebra.Node, in bool) bool {
	switch n.Op {
	case algebra.OpTAggr, algebra.OpDupElim, algebra.OpCoalesce:
		return true
	case algebra.OpSelect, algebra.OpSort, algebra.OpTM, algebra.OpTD:
		return in
	default:
		return false
	}
}

// coalesceOrdered reports whether order satisfies COALESCE^M: every
// non-time column of the input (in any permutation), then T1.
func coalesceOrdered(in types.Schema, order []string) bool {
	t1, t2 := algebra.TimeColumns(in)
	if t1 < 0 || t2 < 0 {
		return false
	}
	nonTime := in.Len() - 2
	if len(order) < nonTime+1 {
		return false
	}
	used := make([]bool, in.Len())
	for _, k := range order[:nonTime] {
		j := in.ColumnIndex(k)
		if j < 0 {
			j = in.ColumnIndex(algebra.Unqualify(k))
		}
		if j < 0 || j == t1 || j == t2 || used[j] {
			return false
		}
		used[j] = true
	}
	return isPrefixOf([]string{in.Cols[t1].Name}, order[nonTime:])
}

// isPrefixOf reports whether a is a (case-insensitive, qualifier
// tolerant) prefix of b.
func isPrefixOf(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) &&
			!strings.EqualFold(algebra.Unqualify(a[i]), algebra.Unqualify(b[i])) {
			return false
		}
	}
	return true
}

// predColsSurvive reports whether every predicate column appears among
// the projection sources (so the predicate can run after projection).
func predColsSurvive(pred sqlast.Expr, cols []algebra.ProjCol) bool {
	for _, c := range eval.ExprColumns(pred) {
		found := false
		for _, pc := range cols {
			if strings.EqualFold(pc.Src, c) || strings.EqualFold(algebra.Unqualify(pc.Src), algebra.Unqualify(c)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// renamePred rewrites predicate column references from projection
// sources to outputs.
func renamePred(pred sqlast.Expr, cols []algebra.ProjCol) sqlast.Expr {
	mapping := map[string]string{}
	for _, pc := range cols {
		mapping[strings.ToUpper(pc.Src)] = pc.Out()
		mapping[strings.ToUpper(algebra.Unqualify(pc.Src))] = pc.Out()
	}
	return mapCols(pred, mapping)
}

// unrenamePred rewrites predicate column references from projection
// outputs back to sources; fails when a referenced column is not an
// output.
func unrenamePred(pred sqlast.Expr, cols []algebra.ProjCol) (sqlast.Expr, bool) {
	mapping := map[string]string{}
	for _, pc := range cols {
		mapping[strings.ToUpper(pc.Out())] = pc.Src
	}
	ok := true
	for _, c := range eval.ExprColumns(pred) {
		if _, found := mapping[strings.ToUpper(c)]; !found {
			ok = false
		}
	}
	if !ok {
		return nil, false
	}
	return mapCols(pred, mapping), true
}

func mapCols(e sqlast.Expr, mapping map[string]string) sqlast.Expr {
	switch x := e.(type) {
	case sqlast.ColumnRef:
		name := x.Name
		if x.Table != "" {
			name = x.Table + "." + x.Name
		}
		if to, ok := mapping[strings.ToUpper(name)]; ok {
			return colRefOf(to)
		}
		return x
	case sqlast.BinaryExpr:
		return sqlast.BinaryExpr{Op: x.Op, Left: mapCols(x.Left, mapping), Right: mapCols(x.Right, mapping)}
	case sqlast.UnaryExpr:
		return sqlast.UnaryExpr{Op: x.Op, Operand: mapCols(x.Operand, mapping)}
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = mapCols(a, mapping)
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}
	case sqlast.Between:
		return sqlast.Between{Expr: mapCols(x.Expr, mapping), Lo: mapCols(x.Lo, mapping), Hi: mapCols(x.Hi, mapping), Not: x.Not}
	case sqlast.IsNull:
		return sqlast.IsNull{Expr: mapCols(x.Expr, mapping), Not: x.Not}
	default:
		return e
	}
}

func colRefOf(name string) sqlast.ColumnRef {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		return sqlast.ColumnRef{Table: name[:dot], Name: name[dot+1:]}
	}
	return sqlast.ColumnRef{Name: name}
}

// sourceKeys maps sort keys expressed as projection outputs back to
// source names.
func sourceKeys(keys []string, cols []algebra.ProjCol) ([]string, bool) {
	out := make([]string, len(keys))
	for i, k := range keys {
		found := false
		for _, pc := range cols {
			if strings.EqualFold(pc.Out(), k) {
				out[i] = pc.Src
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// outputKeys maps sort keys expressed as source names to projection
// outputs.
func outputKeys(keys []string, cols []algebra.ProjCol) ([]string, bool) {
	out := make([]string, len(keys))
	for i, k := range keys {
		found := false
		for _, pc := range cols {
			if strings.EqualFold(pc.Src, k) || strings.EqualFold(algebra.Unqualify(pc.Src), algebra.Unqualify(k)) {
				out[i] = pc.Out()
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
