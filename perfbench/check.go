package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"tango/internal/algebra"
	"tango/internal/engine"
	"tango/internal/optimizer"
	"tango/internal/rel"
	"tango/internal/tango"
	"tango/internal/tsql"
	"tango/internal/types"
)

// fingerprint summarizes a result without keeping it: the row count,
// an order-independent hash of the rows, and an order-dependent hash
// of the order-key columns.
type fingerprint struct {
	rows    int
	bag     uint64
	ordered uint64
}

// orderKeys returns the result columns a plan orders its output by:
// the keys of the topmost sort under the final transfers, or nil when
// the output order is unspecified.
func orderKeys(plan *algebra.Node, schema types.Schema) ([]int, error) {
	n := plan
	for n != nil && n.Op == algebra.OpTM {
		n = n.Left
	}
	if n == nil || n.Op != algebra.OpSort {
		return nil, nil
	}
	idx := make([]int, len(n.Keys))
	for i, k := range n.Keys {
		j := schema.ColumnIndex(k)
		if j < 0 {
			if dot := strings.LastIndexByte(k, '.'); dot >= 0 {
				j = schema.ColumnIndex(k[dot+1:])
			}
		}
		if j < 0 {
			return nil, fmt.Errorf("order key %q not in result schema %v", k, schema)
		}
		idx[i] = j
	}
	return idx, nil
}

// mix is the 64-bit finalizer of splitmix64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fingerprintOf hashes r; keys are the order-key column indexes (nil
// for an unordered result).
func fingerprintOf(r *rel.Relation, keys []int) fingerprint {
	fp := fingerprint{rows: len(r.Tuples)}
	for _, t := range r.Tuples {
		var h uint64 = 0x9e3779b97f4a7c15
		for _, v := range t {
			h = mix(h ^ v.Hash())
		}
		fp.bag += mix(h)
		if keys != nil {
			var k uint64 = 0x2545f4914f6cdd1d
			for _, i := range keys {
				k = mix(k ^ t[i].Hash())
			}
			fp.ordered = mix(fp.ordered ^ k)
		}
	}
	return fp
}

// reference is a statement's expected result, computed before the
// clock starts a different way than the timed run computes it.
type reference struct {
	keys []int
	fp   fingerprint
	// how names the plan the reference was computed with.
	how string
}

// initialPlan builds a read or temporal statement's initial plan:
// the algebra form, or the text parsed by tsql.
func initialPlan(st *statement, mw *tango.Middleware) (*algebra.Node, error) {
	if st.plan != nil {
		return st.plan(), nil
	}
	return tsql.Parse(st.text, mw.Cat)
}

// siting lists every operator with the site it runs at.
func siting(p *algebra.Node) string {
	var b strings.Builder
	p.Walk(func(n *algebra.Node) {
		fmt.Fprintf(&b, "%v@%v ", n.Op, n.Loc())
	})
	return b.String()
}

// computeReference optimizes the statement and runs, sequentially
// (Parallelism 1), the cheapest candidate whose operators are sited
// differently from the optimizer's best plan. The run feeds nothing
// back into the cost model. A statement with a single candidate runs
// that plan sequentially. Plain SQL the temporal dialect cannot
// express (COUNT without GROUP BY) is answered by the engine directly,
// without the server, the wire and the client.
func computeReference(st *statement, mw *tango.Middleware, db *engine.DB) (*reference, error) {
	plan, err := initialPlan(st, mw)
	if err != nil && st.class == classSQL {
		out, qerr := db.QueryAll(st.text)
		if qerr != nil {
			return nil, fmt.Errorf("reference %s: %w", st.key, qerr)
		}
		return &reference{fp: fingerprintOf(out, nil), how: "engine, no wire"}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", st.key, err)
	}
	res, err := mw.Optimize(plan)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", st.key, err)
	}
	cand := alternative(res)
	ex := &tango.Executor{Conn: mw.Conn, Cat: mw.Cat, CheckPlans: true, Parallelism: 1}
	out, err := ex.Run(cand.Plan.Clone())
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", st.key, err)
	}
	keys, err := orderKeys(plan, out.Schema)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", st.key, err)
	}
	how := "sequential, re-sited"
	if siting(cand.Plan) == siting(res.Best) {
		how = "sequential, only plan"
	}
	return &reference{keys: keys, fp: fingerprintOf(out, keys), how: how}, nil
}

// alternative picks the cheapest candidate sited differently from the
// best plan, or the best plan when every candidate is sited alike.
func alternative(res *optimizer.Result) optimizer.Candidate {
	best := siting(res.Best)
	for _, c := range res.Candidates {
		if siting(c.Plan) != best {
			return c
		}
	}
	return res.Candidates[0]
}

// baseline is the resource state a run must return to.
type baseline struct {
	goroutines int
	sessions   int
}

func takeBaseline(sys *system) baseline {
	return baseline{goroutines: runtime.NumGoroutine(), sessions: sys.srv.LiveSessions()}
}

// checkLeaks fails when cursors, temp tables, sessions or goroutines
// outlive the run. Goroutines of closed TCP connections exit
// asynchronously, so the goroutine count gets a grace period.
func checkLeaks(sys *system, base baseline) error {
	var problems []string
	if n := sys.srv.OpenCursors(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d open cursor(s)", n))
	}
	if t := sys.srv.TempTables(); len(t) != 0 {
		problems = append(problems, fmt.Sprintf("temp tables %v", t))
	}
	if n := sys.srv.LiveSessions(); n != base.sessions {
		problems = append(problems, fmt.Sprintf("%d live session(s), baseline %d", n, base.sessions))
	}
	if sys.ts != nil {
		if n := sys.ts.LiveRemoteSessions(); n != 0 {
			problems = append(problems, fmt.Sprintf("%d live remote session(s)", n))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base.goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base.goroutines {
		problems = append(problems, fmt.Sprintf("%d goroutine(s), baseline %d", n, base.goroutines))
	}
	if len(problems) > 0 {
		return fmt.Errorf("leak check: %s", strings.Join(problems, "; "))
	}
	return nil
}
