package main

import (
	"fmt"
	"sync/atomic"

	"tango/internal/algebra"
	"tango/internal/optimizer"
	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/tsql"
	"tango/internal/types"
)

// outcome is what one executed statement returns to the loop.
type outcome struct {
	out      *rel.Relation // read and temporal results
	written  []int64       // IDs a write stored in the log table
	res      *optimizer.Result
	fallback bool
	ops      *telemetry.OpStats
}

// nextLogID numbers log rows across sessions.
var nextLogID atomic.Int64

// exec issues st on the session. With a tracer, root is the
// statement's root span and every call into a layer gets its own span.
func (se *session) exec(st *statement, tr *tracer, root int64) (outcome, error) {
	switch st.class {
	case classTemporal:
		return se.temporal(st, tr, root)
	case classSQL:
		id := tr.begin("client.query_all", root)
		se.setParent(id)
		out, _, err := se.conn.QueryAll(st.text)
		se.setParent(0)
		tr.end(id)
		return outcome{out: out}, err
	default:
		return se.write(st, tr, root)
	}
}

// setParent points the timing backend's server spans at span id (0
// stops recording).
func (se *session) setParent(id int64) {
	if se.be != nil {
		se.be.parent.Store(id)
	}
}

func (se *session) temporal(st *statement, tr *tracer, root int64) (outcome, error) {
	mw := se.mw
	var plan *algebra.Node
	if st.plan != nil {
		plan = st.plan()
	} else {
		id := tr.begin("tsql.parse", root)
		p, err := tsql.Parse(st.text, mw.Cat)
		tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		plan = p
	}
	if tr == nil {
		out, res, err := mw.Run(plan)
		return outcome{out: out, res: res, fallback: hasChild(mw.LastTrace(), "fallback")}, err
	}
	// Traced: the same work as Middleware.Run, with the optimizer and
	// the execution timed as separate layers.
	id := tr.begin("optimizer.optimize", root)
	res, err := mw.Optimize(plan)
	tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	id = tr.begin("tango.execute", root)
	se.setParent(id)
	q := telemetry.NewSpan("query")
	pop := mw.Conn.PushTrace(q)
	out, err := mw.ExecuteResult(res, q)
	pop()
	q.Finish()
	se.setParent(0)
	tr.end(id)
	return outcome{out: out, res: res, fallback: hasChild(q, "fallback"), ops: mw.LastExecStats()}, err
}

func hasChild(sp *telemetry.Span, name string) bool {
	if sp == nil {
		return false
	}
	for _, c := range sp.Children() {
		if c.Name == name {
			return true
		}
	}
	return false
}

func (se *session) write(st *statement, tr *tracer, root int64) (outcome, error) {
	ids := make([]int64, st.batch)
	for i := range ids {
		ids[i] = nextLogID.Add(1)
	}
	var err error
	if st.write == writeInsert {
		id := tr.begin("client.exec", root)
		se.setParent(id)
		_, err = se.conn.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 'n%d')", logTable, ids[0], se.id, ids[0]))
		se.setParent(0)
		tr.end(id)
	} else {
		rows := make([]types.Tuple, len(ids))
		for i, id := range ids {
			rows[i] = types.Tuple{types.Int(id), types.Int(int64(se.id)), types.Str(fmt.Sprintf("n%d", id))}
		}
		id := tr.begin("client.load", root)
		se.setParent(id)
		_, err = se.conn.Load(logTable, rows)
		se.setParent(0)
		tr.end(id)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{written: ids}, nil
}
