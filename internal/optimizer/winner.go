package optimizer

import (
	"strconv"
	"strings"

	"tango/internal/algebra"
)

// winner is the cheapest plan found for a group that delivers one
// combination of physical properties: sort order and
// duplicate-freedom (the paper's list and multiset distinction; the
// site is the group's own). Winners are immutable once built, and
// only point at winners built before them, so every winner is a
// finite plan even when the memo has cycles.
type winner struct {
	cost    float64 // estimated cost of the whole plan, µs
	xfers   int     // wire crossings (T^M and T^D operators)
	order   []string
	dupFree bool
	expr    *gexpr
	kids    []*winner
}

// objective selects which winners a costing run keeps: allow filters
// group expressions (nil allows all); fewestXfers ranks by wire
// crossings first and cost second.
type objective struct {
	allow       func(*gexpr) bool
	fewestXfers bool
}

func (o objective) better(a, b *winner) bool {
	if o.fewestXfers && a.xfers != b.xfers {
		return a.xfers < b.xfers
	}
	return a.cost < b.cost
}

// table holds, per group, the winners of one costing run: at most one
// per delivered property combination.
type table [][]*winner

// offer records w for group g unless a winner with the same
// properties is at least as good; it reports whether the table changed.
func (t table) offer(g int, w *winner, obj objective) bool {
	if w == nil {
		return false
	}
	for i, old := range t[g] {
		if old.dupFree == w.dupFree && sameOrder(old.order, w.order) {
			if obj.better(w, old) {
				t[g][i] = w
				return true
			}
			return false
		}
	}
	t[g] = append(t[g], w)
	return true
}

// solve costs the memo bottom-up: each group keeps, per distinct
// delivered property combination, the cheapest plan under obj. Sweeps
// repeat until no winner improves; the memo may hold cycles (T7 and T8
// make r and T^M(T^D(r)) equivalent), and with non-negative costs no
// cycle ever improves a winner, so the sweeps converge.
func (m *memo) solve(obj objective) table {
	win := make(table, len(m.groups))
	for changed := true; changed; {
		changed = false
		for _, e := range m.exprs {
			if e.dead || (obj.allow != nil && !obj.allow(e)) {
				continue
			}
			g := m.find(e.group)
			in := m.inputs(e)
			switch len(in) {
			case 0:
				changed = win.offer(g, m.build(e, nil), obj) || changed
			case 1:
				for _, c := range win[in[0]] {
					if elides(e.node, c) {
						changed = win.offer(g, c, obj) || changed
					}
					changed = win.offer(g, m.build(e, []*winner{c}), obj) || changed
				}
			case 2:
				for _, l := range win[in[0]] {
					for _, r := range win[in[1]] {
						changed = win.offer(g, m.build(e, []*winner{l, r}), obj) || changed
					}
				}
			}
		}
	}
	return win
}

// differing returns the cheapest plan of group root, ordered on need,
// whose siting — its operators with their sites, in pre-order —
// differs from ref's; nil when every plan is sited like ref. win is
// the unconstrained cost table ref was picked from.
//
// For each node p of ref's plan, diff[p] holds per group the cheapest
// plans that are not sited like the subtree at p. A plan differs from
// p's subtree when its root operator or site differs (its inputs are
// then free), or when the root matches and one input differs from the
// matching input of p. An elided sort or duplicate elimination
// occupies no position: its plan differs exactly when its input's
// does.
func (m *memo) differing(win table, ref *winner, root int, need []string) *winner {
	var nodes []*winner // ref's plan in pre-order
	var kids [][]int    // per node, the positions of its inputs
	var index func(w *winner) int
	index = func(w *winner) int {
		p := len(nodes)
		nodes = append(nodes, w)
		kids = append(kids, nil)
		for _, k := range w.kids {
			q := index(k)
			kids[p] = append(kids[p], q)
		}
		return p
	}
	index(ref)
	diff := make([]table, len(nodes))
	for p := range diff {
		diff[p] = make(table, len(m.groups))
	}
	obj := objective{}
	for changed := true; changed; {
		changed = false
		for _, e := range m.exprs {
			if e.dead {
				continue
			}
			g := m.find(e.group)
			in := m.inputs(e)
			for p, at := range nodes {
				same := e.node.Op == at.expr.node.Op && e.node.Loc() == at.expr.node.Loc() && len(in) == len(at.kids)
				d := diff[p]
				switch {
				case len(in) == 0:
					if !same {
						changed = d.offer(g, m.build(e, nil), obj) || changed
					}
				case len(in) == 1:
					for _, c := range d[in[0]] {
						if elides(e.node, c) {
							changed = d.offer(g, c, obj) || changed
						}
					}
					from := win[in[0]]
					if same {
						from = diff[kids[p][0]][in[0]]
					}
					for _, c := range from {
						changed = d.offer(g, m.build(e, []*winner{c}), obj) || changed
					}
				case !same:
					for _, l := range win[in[0]] {
						for _, r := range win[in[1]] {
							changed = d.offer(g, m.build(e, []*winner{l, r}), obj) || changed
						}
					}
				default:
					k := kids[p]
					for _, l := range diff[k[0]][in[0]] {
						for _, r := range win[in[1]] {
							changed = d.offer(g, m.build(e, []*winner{l, r}), obj) || changed
						}
					}
					for _, l := range win[in[0]] {
						for _, r := range diff[k[1]][in[1]] {
							changed = d.offer(g, m.build(e, []*winner{l, r}), obj) || changed
						}
					}
				}
			}
		}
	}
	return pick(diff[0], root, need, obj)
}

// elides reports whether the operator is a no-op over the input plan
// c: a sort whose keys c already delivers (the paper's T10, sort_A(r)
// →L r when A is a prefix of Order(r)), or a duplicate elimination
// over a duplicate-free input.
func elides(n *algebra.Node, c *winner) bool {
	switch n.Op {
	case algebra.OpSort:
		return isPrefixOf(n.Keys, c.order)
	case algebra.OpDupElim:
		return c.dupFree
	}
	return false
}

// build prices expression e over the chosen input plans, or returns
// nil when e is malformed or an input does not deliver the order a
// middleware algorithm requires (the same requirements planck checks).
func (m *memo) build(e *gexpr, kids []*winner) *winner {
	if e.malformed {
		return nil
	}
	n := e.node
	var inOrder []string
	inDupFree := false
	if len(kids) > 0 {
		inOrder, inDupFree = kids[0].order, kids[0].dupFree
	}
	if n.Loc() == algebra.LocMW {
		switch n.Op {
		case algebra.OpJoin, algebra.OpTJoin:
			if !isPrefixOf(n.LeftCols, kids[0].order) || !isPrefixOf(n.RightCols, kids[1].order) {
				return nil
			}
		case algebra.OpTAggr:
			if !isPrefixOf(taggrOrder(n), inOrder) {
				return nil
			}
		case algebra.OpCoalesce:
			if !coalesceOrdered(n.Left.Ref.Schema, inOrder) {
				return nil
			}
		}
	}
	w := &winner{cost: e.cost, expr: e, kids: kids,
		order: outputOrder(n, inOrder), dupFree: outputDupFree(n, inDupFree)}
	if n.Op == algebra.OpTM || n.Op == algebra.OpTD {
		w.xfers = 1
	}
	for _, k := range kids {
		w.cost += k.cost
		w.xfers += k.xfers
	}
	return w
}

// pick returns the best winner of group g under obj whose order has
// need as a prefix, or nil.
func pick(win table, g int, need []string, obj objective) *winner {
	var best *winner
	for _, w := range win[g] {
		if isPrefixOf(need, w.order) && (best == nil || obj.better(w, best)) {
			best = w
		}
	}
	return best
}

// plan materializes a winner as an algebra tree.
func (w *winner) plan() *algebra.Node {
	n := w.expr.node.Clone()
	n.Left, n.Right = nil, nil
	if len(w.kids) > 0 {
		n.Left = w.kids[0].plan()
	}
	if len(w.kids) > 1 {
		n.Right = w.kids[1].plan()
	}
	return n
}

// signature identifies a winner's plan by its expressions in
// pre-order; equal signatures mean equal plans.
func (w *winner) signature() string {
	var b strings.Builder
	var walk func(*winner)
	walk = func(w *winner) {
		b.WriteString(strconv.Itoa(w.expr.id))
		b.WriteByte('(')
		for _, k := range w.kids {
			walk(k)
		}
		b.WriteByte(')')
	}
	walk(w)
	return b.String()
}

// placements lists the distinct operator placements (Op@Loc) of a
// winner's plan, in pre-order of first appearance.
func (w *winner) placements() []placement {
	var out []placement
	var walk func(*winner)
	walk = func(w *winner) {
		p := placement{w.expr.node.Op, w.expr.node.Loc()}
		dup := false
		for _, q := range out {
			dup = dup || q == p
		}
		if !dup {
			out = append(out, p)
		}
		for _, k := range w.kids {
			walk(k)
		}
	}
	walk(w)
	return out
}

// placement is one operator at one site.
type placement struct {
	op  algebra.Op
	loc algebra.Location
}

// sameOrder compares two orders column by column.
func sameOrder(a, b []string) bool {
	return len(a) == len(b) && isPrefixOf(a, b)
}

// taggrOrder is the input order TAGGR^M requires: the grouping
// columns, then T1 (§3.4).
func taggrOrder(n *algebra.Node) []string {
	return append(append([]string{}, n.GroupBy...), "T1")
}
