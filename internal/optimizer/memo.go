package optimizer

import (
	"fmt"
	"strconv"
	"strings"

	"tango/internal/algebra"
	"tango/internal/eval"
	"tango/internal/stats"
	"tango/internal/types"
)

// The memo is the paper's Volcano search structure. A group is a class
// of equivalent expressions (equal as multisets); a group expression is
// one operator whose inputs are groups, not subtrees. Expressions are
// hash-consed on their operator key, so every distinct expression is
// stored once, however many rewrites produce it.
//
// Every rewrite rule keeps the site of the subtree it rewrites (T^M
// tops stay middleware-resident, T^D tops stay DBMS-resident), so a
// group has one site. Sort order and duplicate-freedom differ between
// a group's members; they are physical properties, tracked per winner
// when the memo is costed (winner.go).
type memo struct {
	cat    algebra.Catalog
	groups []*group
	parent []int // union-find over group IDs: merged groups point at the survivor
	exprs  []*gexpr
	index  map[string]*gexpr // hash-consed operator key → expression
}

// group is one equivalence class.
type group struct {
	ref   *algebra.Node // the OpGroup leaf standing for this group
	exprs []*gexpr      // members, oldest first
	stats *stats.RelStats
	busy  bool // statistics derivation in progress (cycle guard)
}

// gexpr is one group expression.
type gexpr struct {
	id    int
	node  *algebra.Node // the operator; its inputs are OpGroup leaves
	group int           // owning group (resolve with find after merges)
	dead  bool          // a duplicate dropped when two groups merged
	// malformed marks an operator whose own references do not resolve
	// (wellFormed); rules still rewrite it, but no plan uses it.
	malformed bool
	cost      float64 // the operator's own cost, set before costing
}

func newMemo(cat algebra.Catalog) *memo {
	return &memo{cat: cat, index: map[string]*gexpr{}}
}

// find returns the surviving ID of a group.
func (m *memo) find(g int) int {
	for m.parent[g] != g {
		m.parent[g] = m.parent[m.parent[g]]
		g = m.parent[g]
	}
	return g
}

// inputs returns the canonical input group IDs of an expression.
func (m *memo) inputs(e *gexpr) []int {
	var in []int
	for _, c := range []*algebra.Node{e.node.Left, e.node.Right} {
		if c != nil {
			in = append(in, m.find(c.Ref.ID))
		}
	}
	return in
}

// members returns the live expressions of the group a leaf refers to.
func (m *memo) members(ref *algebra.Node) []*gexpr {
	return m.groups[m.find(ref.Ref.ID)].exprs
}

// insert adds a tree — concrete operators over OpGroup leaves or base
// scans — bottom-up and returns the group of its root. With target ≥ 0
// the root joins that group, merging it with the root's group when the
// root is already known elsewhere. changed reports whether the memo
// gained an expression or merged groups.
func (m *memo) insert(n *algebra.Node, target int) (gid int, changed bool, err error) {
	if n.Op == algebra.OpGroup {
		gid = m.find(n.Ref.ID)
		if target >= 0 && gid != target {
			return m.merge(target, gid), true, nil
		}
		return gid, false, nil
	}
	node := *n
	var kids []int
	for i, c := range []*algebra.Node{n.Left, n.Right} {
		if c == nil {
			continue
		}
		k, ch, err := m.insert(c, -1)
		if err != nil {
			return 0, false, err
		}
		changed = changed || ch
		kids = append(kids, k)
		if i == 0 {
			node.Left = m.groups[k].ref
		} else {
			node.Right = m.groups[k].ref
		}
	}
	key := exprKey(&node, kids)
	if e, ok := m.index[key]; ok {
		gid = m.find(e.group)
		if target >= 0 && gid != target {
			return m.merge(target, gid), true, nil
		}
		return gid, changed, nil
	}
	if target < 0 {
		schema, err := node.Schema(m.cat)
		if err != nil {
			return 0, false, err
		}
		target = len(m.groups)
		ref := &algebra.GroupRef{ID: target, Schema: schema, Loc: node.Loc()}
		m.groups = append(m.groups, &group{ref: algebra.Group(ref)})
		m.parent = append(m.parent, target)
	}
	e := &gexpr{id: len(m.exprs), node: &node, group: target, malformed: !wellFormed(&node)}
	m.exprs = append(m.exprs, e)
	m.index[key] = e
	m.groups[target].exprs = append(m.groups[target].exprs, e)
	return target, true, nil
}

// merge unites two groups found to be equivalent and returns the
// survivor (the older group). Expressions whose inputs were the merged
// group are re-keyed; any that now coincide are deduplicated, which
// can merge further groups.
func (m *memo) merge(a, b int) int {
	a, b = m.find(a), m.find(b)
	if a == b {
		return a
	}
	if b < a {
		a, b = b, a
	}
	m.parent[b] = a
	ga, gb := m.groups[a], m.groups[b]
	for _, e := range gb.exprs {
		e.group = a
	}
	ga.exprs = append(ga.exprs, gb.exprs...)
	gb.exprs = nil
	if ga.stats == nil {
		ga.stats = gb.stats
	}
	m.rehash()
	return m.find(a)
}

// rehash rebuilds the expression index after a merge.
func (m *memo) rehash() {
	m.index = make(map[string]*gexpr, len(m.exprs))
	var pending [][2]int
	for _, e := range m.exprs {
		if e.dead {
			continue
		}
		if e.node.Left != nil {
			e.node.Left = m.groups[m.find(e.node.Left.Ref.ID)].ref
		}
		if e.node.Right != nil {
			e.node.Right = m.groups[m.find(e.node.Right.Ref.ID)].ref
		}
		key := exprKey(e.node, m.inputs(e))
		if prev, ok := m.index[key]; ok {
			e.dead = true
			if ga, gb := m.find(prev.group), m.find(e.group); ga != gb {
				pending = append(pending, [2]int{ga, gb})
			}
			continue
		}
		m.index[key] = e
	}
	for _, g := range m.groups {
		live := g.exprs[:0]
		for _, e := range g.exprs {
			if !e.dead {
				live = append(live, e)
			}
		}
		g.exprs = live
	}
	for _, p := range pending {
		m.merge(p[0], p[1])
	}
}

// counts returns the live groups and expressions.
func (m *memo) counts() (classes, elements int) {
	for i, g := range m.groups {
		if m.find(i) == i {
			classes++
			elements += len(g.exprs)
		}
	}
	return classes, elements
}

// groupStats derives a group's statistics once, from its oldest member
// whose inputs do not lead back to the group (a logical property:
// every member computes the same relation).
func (m *memo) groupStats(g int, der *stats.Derivation) (*stats.RelStats, error) {
	grp := m.groups[g]
	if grp.stats != nil {
		return grp.stats, nil
	}
	grp.busy = true
	defer func() { grp.busy = false }()
next:
	for _, e := range grp.exprs {
		var in []*stats.RelStats
		for _, k := range m.inputs(e) {
			if m.groups[k].busy {
				continue next // a cycle, such as T^M(T^D(g)) in g
			}
			s, err := m.groupStats(k, der)
			if err != nil {
				return nil, err
			}
			in = append(in, s)
		}
		s, err := der.Op(e.node, in...)
		if err != nil {
			return nil, err
		}
		grp.stats = s
		return s, nil
	}
	return nil, fmt.Errorf("optimizer: every member of memo group %d depends on itself", g)
}

// wellFormed reports whether an operator's own column references
// resolve in its inputs' schemas: the checks planck makes besides
// sort order. A translated query can start out with such an operator
// (an ORDER BY naming a qualified column the aggregation output
// unqualified); the costing then only uses plans that elide it.
func wellFormed(n *algebra.Node) bool {
	resolves := func(s types.Schema, cols []string) bool {
		for _, c := range cols {
			if s.ColumnIndex(c) < 0 {
				return false
			}
		}
		return true
	}
	var in types.Schema
	if n.Left != nil {
		in = n.Left.Ref.Schema
	}
	switch n.Op {
	case algebra.OpSelect:
		if n.Pred == nil || !resolves(in, eval.ExprColumns(n.Pred)) {
			return false
		}
		if n.Loc() == algebra.LocMW {
			_, err := eval.Compile(n.Pred, in)
			return err == nil
		}
	case algebra.OpProject:
		return len(n.Cols) > 0
	case algebra.OpSort:
		return len(n.Keys) > 0 && resolves(in, n.Keys)
	case algebra.OpJoin, algebra.OpTJoin:
		return len(n.LeftCols) == len(n.RightCols) &&
			resolves(in, n.LeftCols) && resolves(n.Right.Ref.Schema, n.RightCols)
	case algebra.OpTAggr:
		for _, a := range n.Aggs {
			switch a.Fn {
			case "COUNT", "SUM", "AVG", "MIN", "MAX":
			default:
				return false
			}
		}
	}
	return true
}

// exprKey is the hash-consing key of an operator: its own fields
// (case-folded, as SQL names are) and its input group IDs.
func exprKey(n *algebra.Node, kids []int) string {
	var b strings.Builder
	b.WriteString(n.Op.String())
	b.WriteByte('[')
	switch n.Op {
	case algebra.OpScan:
		b.WriteString(strings.ToUpper(n.Table))
		b.WriteByte(' ')
		b.WriteString(strings.ToUpper(n.Alias))
	case algebra.OpSelect:
		b.WriteString(strings.ToUpper(n.Pred.String()))
	case algebra.OpProject:
		for _, c := range n.Cols {
			b.WriteString(strings.ToUpper(c.Src))
			b.WriteByte('>')
			b.WriteString(strings.ToUpper(c.Out()))
			b.WriteByte(',')
		}
	case algebra.OpSort:
		writeNames(&b, n.Keys)
	case algebra.OpJoin, algebra.OpTJoin:
		writeNames(&b, n.LeftCols)
		b.WriteByte('=')
		writeNames(&b, n.RightCols)
	case algebra.OpTAggr:
		writeNames(&b, n.GroupBy)
		b.WriteByte(';')
		for _, a := range n.Aggs {
			b.WriteString(strings.ToUpper(a.Fn + "(" + a.Col + ")"))
			b.WriteByte(',')
		}
	}
	b.WriteByte(']')
	for _, k := range kids {
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(k))
	}
	return b.String()
}

func writeNames(b *strings.Builder, names []string) {
	for _, s := range names {
		b.WriteString(strings.ToUpper(s))
		b.WriteByte(',')
	}
}

// explore fires every rule on every binding until no rule adds an
// expression or merges groups. A binding is a group expression,
// optionally with its left input (depth 2) and that input's left
// input (depth 3) bound to concrete members; each binding meets each
// rule of its depth once.
func (m *memo) explore(rules []Rule, fired map[string]int) error {
	byDepth := map[int][]Rule{}
	maxDepth := 1
	for _, r := range rules {
		byDepth[r.Depth] = append(byDepth[r.Depth], r)
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
	}
	type bindKey struct{ e, m1, m2 int }
	seen := map[bindKey]bool{}
	for grew := true; grew; {
		grew = false
		for i := 0; i < len(m.exprs); i++ {
			e := m.exprs[i]
			if e.dead {
				continue
			}
			apply := func(k bindKey, depth int, bound *algebra.Node) error {
				if seen[k] {
					return nil
				}
				seen[k] = true
				for _, r := range byDepth[depth] {
					outs := r.Apply(bound)
					if len(outs) == 0 {
						continue
					}
					fired[r.Name]++
					for _, out := range outs {
						ch, err := m.add(out, m.find(e.group))
						if err != nil {
							return err
						}
						grew = grew || ch
					}
				}
				return nil
			}
			if err := apply(bindKey{e.id, -1, -1}, 1, e.node); err != nil {
				return err
			}
			if maxDepth < 2 || e.node.Left == nil {
				continue
			}
			for _, m1 := range append([]*gexpr(nil), m.members(e.node.Left)...) {
				b := *e.node
				b.Left = m1.node
				if err := apply(bindKey{e.id, m1.id, -1}, 2, &b); err != nil {
					return err
				}
				if maxDepth < 3 || m1.node.Left == nil {
					continue
				}
				for _, m2 := range append([]*gexpr(nil), m.members(m1.node.Left)...) {
					c := *m1.node
					c.Left = m2.node
					b3 := *e.node
					b3.Left = &c
					if err := apply(bindKey{e.id, m1.id, m2.id}, 3, &b3); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// add inserts a rule's rewrite into group g. Rewrites that fail
// Validate (misplaced transfers, a join straddling the sites) or that
// change the group's site or schema are dropped.
func (m *memo) add(out *algebra.Node, g int) (bool, error) {
	if out.Validate() != nil {
		return false, nil
	}
	ref := m.groups[g].ref.Ref
	if out.Loc() != ref.Loc {
		return false, nil
	}
	schema, err := out.Schema(m.cat)
	if err != nil || !schema.Equal(ref.Schema) {
		return false, nil
	}
	_, changed, err := m.insert(out, g)
	return changed, err
}
