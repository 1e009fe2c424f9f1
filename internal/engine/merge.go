package engine

import (
	"strings"

	"tango/internal/sqlast"
	"tango/internal/types"
)

// mergeDerived rewrites a SELECT block whose only FROM entry is a
// derived table into one block over the derived table's own FROM, the
// way a DBMS merges a view. The middleware's SQL generator wraps every
// projection, selection and ORDER BY in such a table ("SELECT … FROM
// (…) P_"); merged, the statement runs as one block, so the inner
// projection's unused columns are never computed and no row is copied
// once per wrapper.
//
// The inner block merges first (bottom-up). It must have no DISTINCT,
// aggregate, GROUP BY, HAVING, UNION, ORDER BY or LIMIT; its select
// items are substituted for the derived table's columns in the outer
// items, WHERE, GROUP BY and HAVING, and its WHERE joins the outer
// one. Outer ORDER BY keys resolve against the block's output names,
// which the merge keeps: every outer item keeps the name the unmerged
// plan gave it. The merged block takes the inner block's join hint,
// the one that governed its FROM before. A block that cannot merge is
// returned unchanged and plans its derived table on its own.
func mergeDerived(v *catalogVersion, s *sqlast.SelectStmt) *sqlast.SelectStmt {
	if len(s.From) != 1 {
		return s
	}
	d, ok := s.From[0].(sqlast.Derived)
	if !ok {
		return s
	}
	in := mergeDerived(v, d.Select)
	if in.Distinct || len(in.GroupBy) > 0 || in.Having != nil || in.Union != nil ||
		len(in.OrderBy) > 0 || in.Limit > 0 {
		return s
	}
	for _, item := range in.Items {
		if sqlast.HasAggregate(item.Expr) {
			return s
		}
	}
	names, exprs, ok := innerColumns(v, in)
	if !ok {
		return s
	}
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n}
	}
	m := &substitution{schema: types.Schema{Cols: cols}.Qualify(d.Alias), exprs: exprs, ok: true}

	var items []sqlast.SelectItem
	for i, item := range s.Items {
		if _, star := item.Expr.(sqlast.Star); star || isStarOf(item.Expr, d.Alias) {
			for j := range exprs {
				items = append(items, sqlast.SelectItem{Expr: exprs[j], Alias: names[j]})
			}
			continue
		}
		items = append(items, sqlast.SelectItem{Expr: m.apply(item.Expr), Alias: outputName(item, i)})
	}
	out := &sqlast.SelectStmt{
		Hint: in.Hint, Distinct: s.Distinct, Items: items, From: in.From,
		Where:   sqlast.AndAll(append(sqlast.Conjuncts(in.Where), sqlast.Conjuncts(m.apply(s.Where))...)),
		Having:  m.apply(s.Having),
		OrderBy: s.OrderBy, Union: s.Union, UnionAll: s.UnionAll, Limit: s.Limit,
	}
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, m.apply(g))
	}
	if !m.ok {
		return s // a reference the derived table cannot resolve: report it unmerged
	}
	return out
}

// isStarOf reports whether e is the select item "alias.*".
func isStarOf(e sqlast.Expr, alias string) bool {
	cr, ok := e.(sqlast.ColumnRef)
	return ok && cr.Name == "*" && strings.EqualFold(cr.Table, alias)
}

// innerColumns lists a block's output columns, in order: each one's
// name (as planProjection names it) and the expression computing it
// over the block's FROM. A * or t.* item expands to qualified column
// references, so it needs every FROM entry to be a base table with a
// distinct qualifier; otherwise ok is false.
func innerColumns(v *catalogVersion, s *sqlast.SelectStmt) (names []string, exprs []sqlast.Expr, ok bool) {
	expand := func(table string) bool {
		seen := map[string]bool{}
		found := false
		for _, ref := range s.From {
			tn, isTable := ref.(sqlast.TableName)
			if !isTable {
				return false
			}
			q := tn.Alias
			if q == "" {
				q = tn.Name
			}
			if seen[strings.ToUpper(q)] {
				return false
			}
			seen[strings.ToUpper(q)] = true
			if table != "" && !strings.EqualFold(table, q) {
				continue
			}
			t, err := v.table(tn.Name)
			if err != nil {
				return false
			}
			for _, c := range t.Schema.Cols {
				names = append(names, c.Name)
				exprs = append(exprs, sqlast.ColumnRef{Table: q, Name: c.Name})
			}
			found = true
		}
		return found || table == ""
	}
	for i, item := range s.Items {
		switch x := item.Expr.(type) {
		case sqlast.Star:
			if !expand("") {
				return nil, nil, false
			}
		case sqlast.ColumnRef:
			if x.Name == "*" {
				if !expand(x.Table) {
					return nil, nil, false
				}
				continue
			}
			names = append(names, outputName(item, i))
			exprs = append(exprs, x)
		default:
			names = append(names, outputName(item, i))
			exprs = append(exprs, item.Expr)
		}
	}
	return names, exprs, true
}

// substitution replaces references to a derived table's columns
// (schema, qualified by its alias) with the expressions computing
// them. ok turns false when a reference does not resolve there.
type substitution struct {
	schema types.Schema
	exprs  []sqlast.Expr
	ok     bool
}

func (m *substitution) apply(e sqlast.Expr) sqlast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case sqlast.ColumnRef:
		i := m.schema.ColumnIndex(x.String())
		if i < 0 {
			m.ok = false
			return x
		}
		return m.exprs[i]
	case sqlast.BinaryExpr:
		return sqlast.BinaryExpr{Op: x.Op, Left: m.apply(x.Left), Right: m.apply(x.Right)}
	case sqlast.UnaryExpr:
		return sqlast.UnaryExpr{Op: x.Op, Operand: m.apply(x.Operand)}
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = m.apply(a)
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}
	case sqlast.Between:
		return sqlast.Between{Expr: m.apply(x.Expr), Lo: m.apply(x.Lo), Hi: m.apply(x.Hi), Not: x.Not}
	case sqlast.IsNull:
		return sqlast.IsNull{Expr: m.apply(x.Expr), Not: x.Not}
	default: // literals and the * of COUNT(*)
		return e
	}
}

// keptColumns returns the ascending positions of the columns of a base
// table (schema, FROM qualifier q) that block s references anywhere:
// select items, WHERE, GROUP BY, HAVING, ORDER BY. A reference keeps
// every column it could resolve to, so ambiguity checks see the same
// candidates as over the whole table. It returns nil, no pruning, when
// every column is kept.
func keptColumns(s *sqlast.SelectStmt, q string, schema types.Schema) []int {
	want := make([]bool, schema.Len())
	mark := func(e sqlast.Expr) {
		sqlast.Walk(e, func(x sqlast.Expr) bool {
			cr, ok := x.(sqlast.ColumnRef)
			if !ok || (cr.Table != "" && !strings.EqualFold(cr.Table, q)) {
				return true
			}
			for i, c := range schema.Cols {
				if cr.Name == "*" || strings.EqualFold(cr.Name, c.Name) {
					want[i] = true
				}
			}
			return true
		})
	}
	for _, item := range s.Items {
		if _, star := item.Expr.(sqlast.Star); star {
			return nil
		}
		mark(item.Expr)
	}
	mark(s.Where)
	mark(s.Having)
	for _, g := range s.GroupBy {
		mark(g)
	}
	for _, o := range s.OrderBy {
		mark(o.Expr)
	}
	keep := []int{}
	for i, w := range want {
		if w {
			keep = append(keep, i)
		}
	}
	if len(keep) == schema.Len() {
		return nil
	}
	return keep
}
