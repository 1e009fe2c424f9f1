// Package cost implements the middleware's Cost Estimator: the cost
// formulas of Figure 6 of the paper (plus the "generic" DBMS formulas
// for scan, sort, and join), the cost factors they weigh statistics
// with, Du et al.-style calibration that derives the factors from
// sample runs, and the adaptive feedback loop that refines the
// transfer factors from measured execution (the "adaptable" in the
// paper's title). All costs are in microseconds, the paper's unit.
package cost

import (
	"fmt"
	"math"

	"tango/internal/algebra"
	"tango/internal/stats"
)

// Factors are the calibration constants (µs per byte unless noted).
// The paper's p_tm, p_td, p_sem, p_taggm1, p_taggm2, p_taggd1,
// p_taggd2 appear under those names; the rest parameterize the generic
// DBMS formulas and the remaining middleware algorithms.
type Factors struct {
	TM      float64 // p_tm: TRANSFER^M per byte
	TD      float64 // p_td: TRANSFER^D per byte
	SelM    float64 // p_sem: FILTER^M per byte per predicate term
	TAggrM1 float64 // p_taggm1: TAGGR^M per input byte
	TAggrM2 float64 // p_taggm2: TAGGR^M per output byte
	TAggrD1 float64 // p_taggd1: TAGGR^D per input byte
	TAggrD2 float64 // p_taggd2: TAGGR^D per output byte
	SortM   float64 // SORT^M per byte per log2(card)
	SortD   float64 // generic DBMS sort per byte per log2(card)
	JoinM   float64 // JOIN^M / TJOIN^M per byte moved (in+out)
	JoinD   float64 // generic DBMS join per byte moved
	ScanD   float64 // full table scan per byte
	DupM    float64 // DUPELIM^M per byte
	CoalM   float64 // COALESCE^M per byte
}

// DefaultFactors are rough priors used before calibration (a modern
// machine moves roughly a byte per few nanoseconds through these code
// paths; transfers are an order of magnitude more expensive than
// scans).
func DefaultFactors() Factors {
	return Factors{
		TM: 0.02, TD: 0.03,
		SelM:    0.002,
		TAggrM1: 0.01, TAggrM2: 0.01,
		TAggrD1: 0.2, TAggrD2: 0.2,
		SortM: 0.001, SortD: 0.001,
		JoinM: 0.005, JoinD: 0.004,
		ScanD: 0.002,
		DupM:  0.004, CoalM: 0.003,
	}
}

// Model prices plans: statistics come from the estimator, weights from
// the factors.
type Model struct {
	F   Factors
	Est *stats.Estimator
}

// NewModel builds a model with default factors.
func NewModel(est *stats.Estimator) *Model {
	return &Model{F: DefaultFactors(), Est: est}
}

// PlanCost returns the estimated cost (µs) of the whole plan: the sum
// of the per-operator costs, with statistics derived bottom-up in one
// derivation (each base table's statistics fetched once).
func (m *Model) PlanCost(n *algebra.Node) (float64, error) {
	return m.planCost(n, m.Est.NewDerivation())
}

func (m *Model) planCost(n *algebra.Node, d *stats.Derivation) (float64, error) {
	if n == nil {
		return 0, nil
	}
	var in []*stats.RelStats
	total := 0.0
	for _, c := range []*algebra.Node{n.Left, n.Right} {
		if c == nil {
			continue
		}
		sub, err := m.planCost(c, d)
		if err != nil {
			return 0, err
		}
		st, err := d.Plan(c)
		if err != nil {
			return 0, err
		}
		total += sub
		in = append(in, st)
	}
	out, err := d.Plan(n)
	if err != nil {
		return 0, err
	}
	c, err := m.OpCost(n, out, in...)
	if err != nil {
		return 0, err
	}
	return total + c, nil
}

// OpCost prices one operator, excluding its inputs, from its output
// statistics and its inputs' statistics (in[0] the left input, in[1]
// the right). The site comes from n.Loc(), so the inputs may be memo
// group references.
func (m *Model) OpCost(n *algebra.Node, out *stats.RelStats, in ...*stats.RelStats) (float64, error) {
	if n.Op != algebra.OpScan && len(in) == 0 {
		return 0, fmt.Errorf("cost: %v without input statistics", n.Op)
	}
	switch n.Op {
	case algebra.OpScan:
		return m.F.ScanD * out.Size(), nil

	case algebra.OpTM:
		return m.F.TM * in[0].Size(), nil

	case algebra.OpTD:
		return m.F.TD * in[0].Size(), nil

	case algebra.OpSelect:
		if n.Loc() == algebra.LocDBMS {
			return 0, nil // the paper assumes zero-cost DBMS selection
		}
		return m.F.SelM * predWeight(n.Pred) * in[0].Size(), nil

	case algebra.OpProject:
		return 0, nil // zero output-forming cost for projection

	case algebra.OpSort:
		f := m.F.SortD
		if n.Loc() == algebra.LocMW {
			f = m.F.SortM
		}
		return f * in[0].Size() * log2(in[0].Card), nil

	case algebra.OpJoin, algebra.OpTJoin:
		if len(in) < 2 {
			return 0, fmt.Errorf("cost: %v needs two inputs", n.Op)
		}
		f := m.F.JoinD
		if n.Loc() == algebra.LocMW {
			f = m.F.JoinM
		}
		return f * (in[0].Size() + in[1].Size() + out.Size()), nil

	case algebra.OpTAggr:
		if n.Loc() == algebra.LocMW {
			// Figure 6: internal second sort + linear terms.
			internalSort := m.F.SortM * in[0].Size() * log2(in[0].Card)
			return internalSort + m.F.TAggrM1*in[0].Size() + m.F.TAggrM2*out.Size(), nil
		}
		return m.F.TAggrD1*in[0].Size() + m.F.TAggrD2*out.Size(), nil

	case algebra.OpDupElim:
		if n.Loc() == algebra.LocMW {
			return m.F.DupM * in[0].Size(), nil
		}
		return m.F.SortD * in[0].Size() * log2(in[0].Card), nil

	case algebra.OpCoalesce:
		if n.Loc() == algebra.LocDBMS {
			// Coalescing has no SQL translation; a plan that leaves it
			// in the DBMS is not executable.
			return math.Inf(1), nil
		}
		return m.F.CoalM * in[0].Size(), nil

	default:
		return 0, fmt.Errorf("cost: unknown op %v", n.Op)
	}
}

// predWeight is the paper's f(P): a coefficient for the selection
// condition — here the number of atomic predicate terms.
func predWeight(pred interface{ String() string }) float64 {
	if pred == nil {
		return 1
	}
	// Count comparison-ish tokens crudely but deterministically by
	// splitting on AND/OR.
	s := pred.String()
	terms := 1.0
	for i := 0; i+4 < len(s); i++ {
		if s[i:i+5] == " AND " || (i+4 <= len(s) && s[i:i+4] == " OR ") {
			terms++
		}
	}
	return terms
}

func log2(card float64) float64 {
	if card < 2 {
		return 1
	}
	return math.Log2(card)
}
