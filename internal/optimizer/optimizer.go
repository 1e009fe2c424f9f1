package optimizer

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tango/internal/algebra"
	"tango/internal/cost"
	"tango/internal/stats"
)

// Optimizer explores the rule closure of a plan in a memo (phase one)
// and costs the memo bottom-up with the cost model (phase two), the
// two-phase structure of §2.1.
type Optimizer struct {
	Cat   algebra.Catalog
	Model *cost.Model
	// MaxPlans caps len(Result.Candidates). It does not cut the
	// search, which always runs to the rule closure.
	MaxPlans int
	// DisabledGroups turns heuristic groups off for ablation
	// experiments (e.g. {1: true} disables the move-to-middleware
	// rules, leaving stratum-style all-DBMS plans).
	DisabledGroups map[int]bool
}

// New creates an optimizer.
func New(cat algebra.Catalog, model *cost.Model) *Optimizer {
	return &Optimizer{Cat: cat, Model: model, MaxPlans: 512}
}

// Candidate is one complete plan with its estimated cost.
type Candidate struct {
	Plan *algebra.Node
	Cost float64
}

// Result carries the chosen plan and the optimizer accounting the
// paper reports per query: equivalence classes and class elements,
// plus search statistics for the telemetry exporter.
type Result struct {
	Best     *algebra.Node
	BestCost float64
	// Candidates are distinct complete plans sorted by ascending cost:
	// the best plan, the cheapest plan sited differently from it (its
	// operators and their sites differ in pre-order), the cheapest plan
	// with no T^D, the cheapest plan with the fewest wire crossings,
	// and, for every operator placement (Op@Loc) of the best plan, the
	// cheapest plan without that placement — the plan-level fallbacks
	// and cross-checks read these. At most Optimizer.MaxPlans are kept.
	Candidates []Candidate
	// Classes and Elements are the memo's groups and group
	// expressions.
	Classes  int
	Elements int
	// PlansCosted is len(Candidates).
	PlansCosted int
	// RulesFired counts successful rule applications by rule name
	// (including rewrites the memo already held or rejected).
	RulesFired map[string]int
	// Elapsed is the wall time of the whole optimization.
	Elapsed time.Duration
}

// Optimize runs both phases on an initial plan (which, per §2.1,
// assigns all processing to the DBMS with a single T^M on top). The
// chosen plan delivers at least the order the initial plan delivers.
func (o *Optimizer) Optimize(initial *algebra.Node) (*Result, error) {
	start := time.Now()
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: initial plan: %w", err)
	}
	if initial.Loc() != algebra.LocMW {
		return nil, fmt.Errorf("optimizer: no executable candidate plans (the initial plan does not deliver to the middleware)")
	}

	// Phase one: the rule closure.
	m := newMemo(o.Cat)
	root, _, err := m.insert(initial.Clone(), -1)
	if err != nil {
		return nil, fmt.Errorf("optimizer: initial plan: %w", err)
	}
	fired := map[string]int{}
	if err := m.explore(o.activeRules(), fired); err != nil {
		return nil, err
	}
	root = m.find(root)

	// Phase two: statistics once per group, each operator's own cost
	// once per expression, then winners per group and property.
	der := o.Model.Est.NewDerivation()
	for _, e := range m.exprs {
		if e.dead {
			continue
		}
		out, err := m.groupStats(m.find(e.group), der)
		if err != nil {
			return nil, err
		}
		var in []*stats.RelStats
		for _, k := range m.inputs(e) {
			s, err := m.groupStats(k, der)
			if err != nil {
				return nil, err
			}
			in = append(in, s)
		}
		if e.cost, err = o.Model.OpCost(e.node, out, in...); err != nil {
			return nil, err
		}
	}
	need := Order(initial)
	win := m.solve(objective{})
	best := pick(win, root, need, objective{})
	if best == nil {
		return nil, fmt.Errorf("optimizer: no executable candidate plans")
	}
	res := &Result{RulesFired: fired}
	res.Classes, res.Elements = m.counts()
	res.Candidates = o.candidates(m, win, root, need, best)
	res.PlansCosted = len(res.Candidates)
	res.Best = res.Candidates[0].Plan
	res.BestCost = res.Candidates[0].Cost
	res.Elapsed = time.Since(start)
	return res, nil
}

// candidates extracts the best plan and its alternatives (see
// Result.Candidates), deduplicated and sorted by cost.
func (o *Optimizer) candidates(m *memo, win table, root int, need []string, best *winner) []Candidate {
	objs := []objective{
		{allow: func(e *gexpr) bool { return e.node.Op != algebra.OpTD }},
		{fewestXfers: true},
	}
	for _, p := range best.placements() {
		if p.op == algebra.OpScan || p.op == algebra.OpTM || p.op == algebra.OpTD {
			continue // every plan scans and delivers through a T^M; no-T^D is above
		}
		p := p
		objs = append(objs, objective{allow: func(e *gexpr) bool {
			return e.node.Op != p.op || e.node.Loc() != p.loc
		}})
	}
	winners := []*winner{best, m.differing(win, best, root, need)}
	for _, obj := range objs {
		winners = append(winners, pick(m.solve(obj), root, need, obj))
	}
	seen := map[string]bool{}
	var out []Candidate
	for _, w := range winners {
		if w == nil || (w != best && math.IsInf(w.cost, 1)) {
			continue // no such plan, or one that cannot run (COALESCE^D)
		}
		sig := w.signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, Candidate{Plan: w.plan(), Cost: w.cost})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	if o.MaxPlans > 0 && len(out) > o.MaxPlans {
		out = out[:o.MaxPlans]
	}
	return out
}

func (o *Optimizer) activeRules() []Rule {
	all := DefaultRules(o.Cat)
	if len(o.DisabledGroups) == 0 {
		return all
	}
	var out []Rule
	for _, r := range all {
		if !o.DisabledGroups[r.Group] {
			out = append(out, r)
		}
	}
	return out
}
