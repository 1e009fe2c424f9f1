package engine

import (
	"fmt"
	"strings"

	"tango/internal/rel"
	"tango/internal/sqlast"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// instrument wraps a physical operator with telemetry when a metrics
// registry is attached (see DB.SetMetrics); inputs that are themselves
// instrumented become children in the stats tree. Without a registry
// the iterator is returned untouched, so the hot path pays nothing.
func (db *DB) instrument(op string, it rel.Iterator, inputs ...rel.Iterator) rel.Iterator {
	reg := db.metrics.Load()
	if reg == nil {
		return it
	}
	w := telemetry.Instrument(op, nil, it, inputs...)
	w.Sink = telemetry.SinkTo(reg, "dbms")
	return w
}

// asHeapScan sees through instrumentation wrappers to the concrete
// heap scan (used by index-scan and index-nested-loop rewrites).
func asHeapScan(it rel.Iterator) (*heapScan, bool) {
	if w, ok := it.(interface{ Unwrap() rel.Iterator }); ok {
		it = w.Unwrap()
	}
	hs, ok := it.(*heapScan)
	return hs, ok
}

// planSelect builds an iterator tree for a SELECT statement against
// one pinned catalog version, including any UNION chain and the
// trailing ORDER BY. Table resolution, index choice, and visibility
// bounds all come from v, so the plan reads one consistent snapshot.
func (db *DB) planSelect(v *catalogVersion, s *sqlast.SelectStmt) (rel.Iterator, error) {
	it, err := db.planCore(v, s)
	if err != nil {
		return nil, err
	}
	// UNION chain.
	if s.Union != nil {
		right, err := db.planSelect(v, &sqlast.SelectStmt{
			Hint: s.Union.Hint, Distinct: s.Union.Distinct, Items: s.Union.Items,
			From: s.Union.From, Where: s.Union.Where, GroupBy: s.Union.GroupBy,
			Having: s.Union.Having, Union: s.Union.Union, UnionAll: s.Union.UnionAll,
		})
		if err != nil {
			return nil, err
		}
		if it.Schema().Len() != right.Schema().Len() {
			return nil, fmt.Errorf("engine: UNION arity mismatch: %d vs %d",
				it.Schema().Len(), right.Schema().Len())
		}
		u := db.instrument("union", newUnionAll(it, right), it, right)
		if s.UnionAll {
			it = u
		} else {
			it = db.instrument("distinct", newDistinct(u), u)
		}
	}
	// ORDER BY applies to the whole result.
	if len(s.OrderBy) > 0 {
		sorted, err := applyOrderBy(it, s.OrderBy)
		if err != nil {
			return nil, err
		}
		it = db.instrument("sort", sorted, it)
	}
	if s.Limit > 0 {
		it = db.instrument("limit", &limitIter{in: it, n: s.Limit}, it)
	}
	return it, nil
}

// limitIter caps the result at n rows.
type limitIter struct {
	in   rel.Iterator
	n    int64
	seen int64
}

func (l *limitIter) Schema() types.Schema { return l.in.Schema() }
func (l *limitIter) Open() error          { l.seen = 0; return l.in.Open() }
func (l *limitIter) Close() error         { return l.in.Close() }

func (l *limitIter) Next() (types.Tuple, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	t, ok, err := l.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return t, true, nil
}

func applyOrderBy(it rel.Iterator, order []sqlast.OrderItem) (rel.Iterator, error) {
	keys := make([]evalFunc, len(order))
	descs := make([]bool, len(order))
	for i, o := range order {
		k, err := compileExpr(o.Expr, it.Schema())
		if err != nil {
			// The projection strips qualifiers, so "ORDER BY P.PosID"
			// over an output column PosID needs a dequalified retry.
			k2, err2 := compileExpr(stripQualifiers(o.Expr), it.Schema())
			if err2 != nil {
				return nil, err
			}
			k = k2
		}
		keys[i] = k
		descs[i] = o.Desc
	}
	return newSort(it, keys, descs), nil
}

// stripQualifiers removes table qualifiers from every column reference
// in the expression.
func stripQualifiers(e sqlast.Expr) sqlast.Expr {
	switch x := e.(type) {
	case sqlast.ColumnRef:
		return sqlast.ColumnRef{Name: x.Name}
	case sqlast.BinaryExpr:
		return sqlast.BinaryExpr{Op: x.Op, Left: stripQualifiers(x.Left), Right: stripQualifiers(x.Right)}
	case sqlast.UnaryExpr:
		return sqlast.UnaryExpr{Op: x.Op, Operand: stripQualifiers(x.Operand)}
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = stripQualifiers(a)
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}
	case sqlast.Between:
		return sqlast.Between{Expr: stripQualifiers(x.Expr), Lo: stripQualifiers(x.Lo), Hi: stripQualifiers(x.Hi), Not: x.Not}
	case sqlast.IsNull:
		return sqlast.IsNull{Expr: stripQualifiers(x.Expr), Not: x.Not}
	default:
		return e
	}
}

// planCore plans one SELECT block (no UNION, no ORDER BY). A block
// over a lone derived table is merged with it first (mergeDerived);
// base tables deliver only the columns the block references, and the
// last join of a block without aggregation projects its output rows
// itself.
func (db *DB) planCore(v *catalogVersion, s *sqlast.SelectStmt) (rel.Iterator, error) {
	s = mergeDerived(v, s)

	// 1. FROM sources.
	sources, err := db.planSources(v, s)
	if err != nil {
		return nil, err
	}

	conjuncts := sqlast.Conjuncts(s.Where)
	used := make([]bool, len(conjuncts))

	// 2. Push single-source predicates down.
	for si := range sources {
		var pushed []sqlast.Expr
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			if refersOnly(c, sources[si].Schema()) && !resolvesElsewhere(c, sources, si) {
				pushed = append(pushed, c)
				used[ci] = true
			}
		}
		if len(pushed) > 0 {
			src, err := db.applySelection(sources[si], pushed)
			if err != nil {
				return nil, err
			}
			sources[si] = src
		}
	}

	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, item := range s.Items {
		if sqlast.HasAggregate(item.Expr) {
			hasAgg = true
		}
	}

	// 3. Join left-deep in FROM order. The last join projects the
	// select list when no aggregation follows and every predicate left
	// resolves on its pair, so it becomes that join's residual.
	it := sources[0]
	for si := 1; si < len(sources); si++ {
		var items []sqlast.SelectItem
		if si == len(sources)-1 && !hasAgg && resolvesAll(conjuncts, used, sources) {
			items = s.Items
		}
		joined, err := db.join(s.Hint, it, sources[si], conjuncts, used, items)
		if err != nil {
			return nil, err
		}
		it = joined
		if items != nil {
			return db.distinct(s, it), nil
		}
	}

	// 4. Remaining predicates.
	var rest []sqlast.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			rest = append(rest, c)
		}
	}
	if len(rest) > 0 {
		pred, err := compileExpr(sqlast.AndAll(rest), it.Schema())
		if err != nil {
			return nil, err
		}
		it = db.instrument("filter", newFilter(it, pred), it)
	}

	// 5. Aggregation and projection.
	if hasAgg {
		grouped, gCtx, err := db.planGroup(it, s)
		if err != nil {
			return nil, err
		}
		it = db.instrument("group", grouped, it)
		// HAVING.
		if s.Having != nil {
			pred, err := gCtx.compile(s.Having)
			if err != nil {
				return nil, err
			}
			it = db.instrument("filter", newFilter(it, pred), it)
		}
		outSchema, itemExprs, err := gCtx.projectItems(s.Items)
		if err != nil {
			return nil, err
		}
		it = db.instrument("project", newProject(it, outSchema, itemExprs), it)
	} else {
		outSchema, itemExprs, identity, err := planProjection(s.Items, it.Schema())
		if err != nil {
			return nil, err
		}
		if identity {
			// The input already is the output, column for column: only
			// the names change.
			it = &renameIter{in: it, schema: outSchema}
		} else {
			it = db.instrument("project", newProject(it, outSchema, itemExprs), it)
		}
	}
	return db.distinct(s, it), nil
}

// distinct applies the block's DISTINCT, if any.
func (db *DB) distinct(s *sqlast.SelectStmt, it rel.Iterator) rel.Iterator {
	if s.Distinct {
		return db.instrument("distinct", newDistinct(it), it)
	}
	return it
}

// resolvesAll reports whether every unused conjunct resolves on the
// concatenation of all sources.
func resolvesAll(conjuncts []sqlast.Expr, used []bool, sources []rel.Iterator) bool {
	var all types.Schema
	for _, src := range sources {
		all = all.Concat(src.Schema())
	}
	for ci, c := range conjuncts {
		if !used[ci] && !refersOnly(c, all) {
			return false
		}
	}
	return true
}

// planSources builds one iterator per FROM entry; schemas are
// qualified by alias (or table name). A base table delivers only the
// columns the block references (keptColumns).
func (db *DB) planSources(v *catalogVersion, s *sqlast.SelectStmt) ([]rel.Iterator, error) {
	if len(s.From) == 0 {
		// "SELECT expr" with no FROM: one empty row.
		return []rel.Iterator{&dualIter{}}, nil
	}
	sources := make([]rel.Iterator, len(s.From))
	for i, ref := range s.From {
		switch r := ref.(type) {
		case sqlast.TableName:
			t, err := v.table(r.Name)
			if err != nil {
				return nil, err
			}
			q := r.Alias
			if q == "" {
				q = r.Name
			}
			keep := keptColumns(s, q, t.Schema)
			sources[i] = db.instrument("scan("+t.Name+")", newHeapScan(t, q, keep))
		case sqlast.Derived:
			sub, err := db.planSelect(v, r.Select)
			if err != nil {
				return nil, err
			}
			rn := &renameIter{in: sub, schema: sub.Schema().Unqualified().Qualify(r.Alias)}
			sources[i] = db.instrument("derived("+r.Alias+")", rn, sub)
		default:
			return nil, fmt.Errorf("engine: unsupported FROM entry %T", ref)
		}
	}
	return sources, nil
}

// resolvesElsewhere reports whether e's columns could also all resolve
// against a different source (ambiguity guard for unqualified names).
func resolvesElsewhere(e sqlast.Expr, sources []rel.Iterator, self int) bool {
	for i, src := range sources {
		if i == self {
			continue
		}
		if refersOnly(e, src.Schema()) {
			return true
		}
	}
	return false
}

// applySelection applies predicates to a source, using an index range
// scan when the source is a plain table scan and a predicate compares
// an indexed column with a literal.
func (db *DB) applySelection(src rel.Iterator, preds []sqlast.Expr) (rel.Iterator, error) {
	if hs, ok := asHeapScan(src); ok {
		if it, rest, ok2 := tryIndexScan(hs, preds); ok2 {
			preds = rest
			src = db.instrument("indexscan("+hs.table.Name+")", it)
		}
	}
	if len(preds) == 0 {
		return src, nil
	}
	pred, err := compileExpr(sqlast.AndAll(preds), src.Schema())
	if err != nil {
		return nil, err
	}
	return db.instrument("filter", newFilter(src, pred), src), nil
}

// tryIndexScan converts one "col op literal" predicate on an indexed
// column into an index range scan, returning the remaining predicates.
func tryIndexScan(hs *heapScan, preds []sqlast.Expr) (rel.Iterator, []sqlast.Expr, bool) {
	for i, p := range preds {
		b, ok := p.(sqlast.BinaryExpr)
		if !ok {
			continue
		}
		cr, okL := b.Left.(sqlast.ColumnRef)
		lit, okR := b.Right.(sqlast.Literal)
		op := b.Op
		if !okL || !okR {
			// literal op col form
			if lit2, okL2 := b.Left.(sqlast.Literal); okL2 {
				if cr2, okR2 := b.Right.(sqlast.ColumnRef); okR2 {
					cr, lit = cr2, lit2
					op = flipOp(b.Op)
					okL, okR = true, true
				}
			}
		}
		if !okL || !okR {
			continue
		}
		if hs.table.Index(cr.Name) == nil {
			continue
		}
		var lo, hi types.Value
		hiIncl := true
		switch op {
		case sqlast.OpEq:
			lo, hi = lit.Value, lit.Value
		case sqlast.OpLt:
			hi, hiIncl = lit.Value, false
		case sqlast.OpLe:
			hi = lit.Value
		case sqlast.OpGt:
			// Exclusive lower bound is approximated by keeping the
			// predicate as a residual filter over an inclusive scan.
			lo = lit.Value
		case sqlast.OpGe:
			lo = lit.Value
		default:
			continue
		}
		rest := make([]sqlast.Expr, 0, len(preds)-1)
		rest = append(rest, preds[:i]...)
		rest = append(rest, preds[i+1:]...)
		if op == sqlast.OpGt {
			rest = append(rest, p) // residual for exclusivity
		}
		return newIndexScan(hs, cr.Name, lo, hi, hiIncl), rest, true
	}
	return nil, preds, false
}

func flipOp(op sqlast.BinaryOp) sqlast.BinaryOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	}
	return op
}

// join combines the current tree with the next source, consuming
// applicable conjuncts. The method follows the statement hint, else
// hash join for equi-joins and block nested loop otherwise. items, when
// not nil, is the block's select list, which the join then projects
// its output rows to (see joiner).
func (db *DB) join(hint sqlast.JoinHint, left, right rel.Iterator, conjuncts []sqlast.Expr, used []bool, items []sqlast.SelectItem) (rel.Iterator, error) {
	combined := left.Schema().Concat(right.Schema())
	// Applicable: unresolved so far, resolves on the combined schema.
	var applicable []int
	for ci, c := range conjuncts {
		if !used[ci] && refersOnly(c, combined) {
			applicable = append(applicable, ci)
		}
	}
	// Equi pairs: left expr from left schema, right expr from right.
	type equi struct{ l, r sqlast.Expr }
	var equis []equi
	var equiIdx []int
	var residualIdx []int
	for _, ci := range applicable {
		b, ok := conjuncts[ci].(sqlast.BinaryExpr)
		if ok && b.Op == sqlast.OpEq {
			switch {
			case refersOnly(b.Left, left.Schema()) && refersOnly(b.Right, right.Schema()):
				equis = append(equis, equi{b.Left, b.Right})
				equiIdx = append(equiIdx, ci)
				continue
			case refersOnly(b.Right, left.Schema()) && refersOnly(b.Left, right.Schema()):
				equis = append(equis, equi{b.Right, b.Left})
				equiIdx = append(equiIdx, ci)
				continue
			}
		}
		residualIdx = append(residualIdx, ci)
	}

	// output marks the conjuncts idx as consumed and builds the join's
	// output stage: they become the residual over the candidate pair,
	// and items, when set, the projection.
	output := func(idx ...[]int) (joiner, error) {
		var es []sqlast.Expr
		for _, list := range idx {
			for _, ci := range list {
				used[ci] = true
				es = append(es, conjuncts[ci])
			}
		}
		o := joiner{schema: combined, pair: make(types.Tuple, combined.Len()), nl: left.Schema().Len()}
		if len(es) > 0 {
			pred, err := compileExpr(sqlast.AndAll(es), combined)
			if err != nil {
				return o, err
			}
			o.residual = pred
		}
		if items != nil {
			schema, exprs, _, err := planProjection(items, combined)
			if err != nil {
				return o, err
			}
			o.schema, o.proj = schema, exprs
		}
		return o, nil
	}
	nestedLoop := func() (rel.Iterator, error) {
		out, err := output(applicable)
		if err != nil {
			return nil, err
		}
		return db.instrument("nljoin", newNLJoin(left, right, out), left, right), nil
	}

	switch hint {
	case sqlast.HintNestedLoop:
		// Index nested loop when the inner (right) side is a base-table
		// scan with an index on an equi-join column.
		if hs, ok := asHeapScan(right); ok {
			for ei, e := range equis {
				cr, okCR := e.r.(sqlast.ColumnRef)
				if !okCR || hs.table.Index(cr.Name) == nil {
					continue
				}
				outerKey, err := compileExpr(e.l, left.Schema())
				if err != nil {
					return nil, err
				}
				// Other equis plus residuals become the residual filter.
				var others []int
				for k, ci := range equiIdx {
					if k != ei {
						others = append(others, ci)
					}
				}
				used[equiIdx[ei]] = true
				out, err := output(others, residualIdx)
				if err != nil {
					return nil, err
				}
				inl := newIndexNLJoin(left, hs, cr.Name, outerKey, out)
				return db.instrument("indexnljoin", inl, left), nil
			}
		}
		return nestedLoop()

	case sqlast.HintMerge:
		if len(equis) == 0 {
			return nestedLoop()
		}
		lk, err := compileExpr(equis[0].l, left.Schema())
		if err != nil {
			return nil, err
		}
		rk, err := compileExpr(equis[0].r, right.Schema())
		if err != nil {
			return nil, err
		}
		used[equiIdx[0]] = true
		out, err := output(equiIdx[1:], residualIdx)
		if err != nil {
			return nil, err
		}
		mj := newMergeJoin(left, right, lk, rk, out)
		return db.instrument("mergejoin", mj, left, right), nil

	default: // HintHash or no hint
		if len(equis) == 0 {
			return nestedLoop()
		}
		var lks, rks []evalFunc
		for _, e := range equis {
			lk, err := compileExpr(e.l, left.Schema())
			if err != nil {
				return nil, err
			}
			rk, err := compileExpr(e.r, right.Schema())
			if err != nil {
				return nil, err
			}
			lks = append(lks, lk)
			rks = append(rks, rk)
		}
		for _, ci := range equiIdx {
			used[ci] = true
		}
		out, err := output(residualIdx)
		if err != nil {
			return nil, err
		}
		hj := newHashJoin(left, right, lks, rks, out)
		return db.instrument("hashjoin", hj, left, right), nil
	}
}

// planProjection compiles the select list without aggregation.
// identity reports that the list picks every input column in order,
// so the input rows already are the output rows.
func planProjection(items []sqlast.SelectItem, in types.Schema) (_ types.Schema, _ []evalFunc, identity bool, _ error) {
	var cols []types.Column
	var exprs []evalFunc
	identity = true
	pick := func(ci int, name string) {
		identity = identity && ci == len(exprs)
		cols = append(cols, types.Column{Name: name, Kind: in.Cols[ci].Kind})
		exprs = append(exprs, func(t types.Tuple) (types.Value, error) { return t[ci], nil })
	}
	for i, item := range items {
		switch x := item.Expr.(type) {
		case sqlast.Star:
			for ci := range in.Cols {
				pick(ci, unqualify(in.Cols[ci].Name))
			}
		case sqlast.ColumnRef:
			if x.Name == "*" {
				// tab.* form.
				prefix := strings.ToUpper(x.Table) + "."
				found := false
				for ci := range in.Cols {
					if strings.HasPrefix(strings.ToUpper(in.Cols[ci].Name), prefix) {
						pick(ci, unqualify(in.Cols[ci].Name))
						found = true
					}
				}
				if !found {
					return types.Schema{}, nil, false, fmt.Errorf("engine: no columns for %s.*", x.Table)
				}
				continue
			}
			ci := in.ColumnIndex(x.String())
			if ci < 0 {
				_, err := compileExpr(x, in)
				return types.Schema{}, nil, false, err
			}
			pick(ci, outputName(item, i))
		default:
			f, err := compileExpr(item.Expr, in)
			if err != nil {
				return types.Schema{}, nil, false, err
			}
			identity = false
			cols = append(cols, types.Column{Name: outputName(item, i), Kind: inferKind(item.Expr, in)})
			exprs = append(exprs, f)
		}
	}
	identity = identity && len(exprs) == in.Len()
	return types.Schema{Cols: cols}, exprs, identity, nil
}

func unqualify(name string) string {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		return name[dot+1:]
	}
	return name
}

// --- Grouping context ---

// groupCtx rewrites post-aggregation expressions against the
// groupIter's internal schema.
type groupCtx struct {
	groupKeys []sqlast.Expr
	aggs      []sqlast.FuncCall
	internal  types.Schema
	inSchema  types.Schema
}

// planGroup builds the groupIter for a SELECT with aggregation.
func (db *DB) planGroup(in rel.Iterator, s *sqlast.SelectStmt) (rel.Iterator, *groupCtx, error) {
	inSchema := in.Schema()
	// Collect aggregate calls appearing anywhere downstream.
	var aggCalls []sqlast.FuncCall
	seen := map[string]bool{}
	collect := func(e sqlast.Expr) {
		sqlast.Walk(e, func(x sqlast.Expr) bool {
			if f, ok := x.(sqlast.FuncCall); ok && sqlast.IsAggregateName(f.Name) {
				k := exprKey(f)
				if !seen[k] {
					seen[k] = true
					aggCalls = append(aggCalls, f)
				}
				return false
			}
			return true
		})
	}
	for _, item := range s.Items {
		collect(item.Expr)
	}
	if s.Having != nil {
		collect(s.Having)
	}
	for _, o := range s.OrderBy {
		collect(o.Expr)
	}

	keys := make([]evalFunc, len(s.GroupBy))
	var cols []types.Column
	for i, g := range s.GroupBy {
		k, err := compileExpr(g, inSchema)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = k
		name := g.String()
		if cr, ok := g.(sqlast.ColumnRef); ok {
			name = cr.String()
		}
		cols = append(cols, types.Column{Name: name, Kind: inferKind(g, inSchema)})
	}
	var specs []*aggSpec
	for ai, f := range aggCalls {
		if err := validateAgg(f.Name, len(f.Args)); err != nil {
			return nil, nil, err
		}
		spec := &aggSpec{name: f.Name, distinct: f.Distinct}
		if _, isStar := f.Args[0].(sqlast.Star); !isStar {
			arg, err := compileExpr(f.Args[0], inSchema)
			if err != nil {
				return nil, nil, err
			}
			spec.arg = arg
		}
		specs = append(specs, spec)
		cols = append(cols, types.Column{
			Name: fmt.Sprintf("$agg%d", ai),
			Kind: inferKind(f, inSchema),
		})
	}
	internal := types.Schema{Cols: cols}
	g := newGroup(in, keys, specs, internal)
	return g, &groupCtx{groupKeys: s.GroupBy, aggs: aggCalls, internal: internal, inSchema: inSchema}, nil
}

// compile rewrites an expression against the internal grouped schema:
// group-key expressions and aggregate calls become column references.
func (c *groupCtx) compile(e sqlast.Expr) (evalFunc, error) {
	rewritten, err := c.rewrite(e)
	if err != nil {
		return nil, err
	}
	return compileExpr(rewritten, c.internal)
}

func (c *groupCtx) rewrite(e sqlast.Expr) (sqlast.Expr, error) {
	key := exprKey(e)
	for i, g := range c.groupKeys {
		if exprKey(g) == key {
			return sqlast.ColumnRef{Name: c.internal.Cols[i].Name}, nil
		}
	}
	for j, a := range c.aggs {
		if exprKey(a) == key {
			return sqlast.ColumnRef{Name: fmt.Sprintf("$agg%d", j)}, nil
		}
	}
	switch x := e.(type) {
	case sqlast.Literal:
		return x, nil
	case sqlast.ColumnRef:
		// A bare column must match a group key — including the common
		// case where the key is qualified ("B.PosID") and the select
		// item is not ("PosID"), or vice versa.
		for i, g := range c.groupKeys {
			if gr, ok := g.(sqlast.ColumnRef); ok && strings.EqualFold(gr.Name, x.Name) {
				return sqlast.ColumnRef{Name: c.internal.Cols[i].Name}, nil
			}
		}
		return nil, fmt.Errorf("engine: column %s must appear in GROUP BY or an aggregate", x)
	case sqlast.BinaryExpr:
		l, err := c.rewrite(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.rewrite(x.Right)
		if err != nil {
			return nil, err
		}
		return sqlast.BinaryExpr{Op: x.Op, Left: l, Right: r}, nil
	case sqlast.UnaryExpr:
		o, err := c.rewrite(x.Operand)
		if err != nil {
			return nil, err
		}
		return sqlast.UnaryExpr{Op: x.Op, Operand: o}, nil
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := c.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}, nil
	case sqlast.Between:
		ex, err := c.rewrite(x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := c.rewrite(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.rewrite(x.Hi)
		if err != nil {
			return nil, err
		}
		return sqlast.Between{Expr: ex, Lo: lo, Hi: hi, Not: x.Not}, nil
	case sqlast.IsNull:
		ex, err := c.rewrite(x.Expr)
		if err != nil {
			return nil, err
		}
		return sqlast.IsNull{Expr: ex, Not: x.Not}, nil
	default:
		return nil, fmt.Errorf("engine: cannot rewrite %T after GROUP BY", e)
	}
}

// projectItems compiles the select list against the grouped schema.
func (c *groupCtx) projectItems(items []sqlast.SelectItem) (types.Schema, []evalFunc, error) {
	var cols []types.Column
	var exprs []evalFunc
	for i, item := range items {
		if _, ok := item.Expr.(sqlast.Star); ok {
			return types.Schema{}, nil, fmt.Errorf("engine: SELECT * with GROUP BY is not supported")
		}
		f, err := c.compile(item.Expr)
		if err != nil {
			return types.Schema{}, nil, err
		}
		rewritten, _ := c.rewrite(item.Expr)
		kind := inferKind(rewritten, c.internal)
		name := outputName(item, i)
		if item.Alias == "" {
			if cr, ok := item.Expr.(sqlast.ColumnRef); ok {
				name = cr.Name
			} else if fc, ok := item.Expr.(sqlast.FuncCall); ok {
				name = fc.Name
			}
		}
		cols = append(cols, types.Column{Name: name, Kind: kind})
		exprs = append(exprs, f)
	}
	return types.Schema{Cols: cols}, exprs, nil
}

// --- helper iterators ---

// dualIter yields exactly one empty tuple ("SELECT 1").
type dualIter struct{ done bool }

func (dualIter) Schema() types.Schema { return types.Schema{} }
func (d dualIter) Open() error        { return nil }
func (d dualIter) Close() error       { return nil }

func (d *dualIter) Next() (types.Tuple, bool, error) {
	if d.done {
		return nil, false, nil
	}
	d.done = true
	return types.Tuple{}, true, nil
}

// renameIter overrides the schema of its input (used to alias derived
// tables).
type renameIter struct {
	in     rel.Iterator
	schema types.Schema
}

func (r *renameIter) Schema() types.Schema { return r.schema }
func (r *renameIter) Open() error          { return r.in.Open() }
func (r *renameIter) Close() error         { return r.in.Close() }
func (r *renameIter) Next() (types.Tuple, bool, error) {
	return r.in.Next()
}
