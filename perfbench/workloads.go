package main

import (
	"fmt"
	"math/rand"
	"time"

	"tango/internal/algebra"
	"tango/internal/bench"
	"tango/internal/client"
	"tango/internal/types"
)

// Statement classes; each has its own latency metrics.
const (
	classTemporal = "temporal" // through the middleware: optimize, split, execute
	classSQL      = "sql"      // plain SQL forwarded to the DBMS (client.Conn.QueryAll)
	classWrite    = "write"    // INSERT or Load into the log table
)

// Write operations.
const (
	writeInsert = "insert" // single-row INSERT through Exec
	writeLoad   = "load"   // batched bulk load (Load)
)

// logTable receives every write; no checked read touches it.
const logTable = "BENCH_LOG"

func logSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "ID", Kind: types.KindInt},
		{Name: "SESS", Kind: types.KindInt},
		{Name: "NOTE", Kind: types.KindString},
	}}
}

// statement is one kind of statement a client issues. Reads and
// temporal statements are identified by key, which references are
// computed for; a write is made concrete per execution (fresh IDs).
type statement struct {
	class string
	// shape groups statements for plan-switch counting (e.g. "Q2").
	shape string
	// key identifies the exact statement (shape plus constants).
	key string
	// text is the SQL text; empty for the algebra forms of Q1–Q4.
	text string
	// plan builds the algebra initial plan of Q1–Q4.
	plan func() *algebra.Node
	// write and batch describe a write (batch rows per execution).
	write string
	batch int
}

// workload fixes the data sizes, the serving setup, and each client's
// statement stream.
type workload struct {
	name               string
	position, employee int
	// tcp serves the sessions over loopback TCP with admission control
	// and a durable (WAL) store; otherwise sessions are in-process over
	// the in-memory store.
	tcp      bool
	sessions int
	// setups is how many set-ups a run times; their median is setup_s.
	// Cheap set-ups are repeated more so the median is steady.
	setups int
	// retry is the client resilience policy of every session.
	retry client.RetryPolicy
	// cycle returns the statements client s issues in its c-th cycle.
	// A run always ends on a cycle boundary, so each run holds the same
	// statement mix.
	cycle func(s, c int) []*statement
	// distinct lists every read or temporal statement cycle can return,
	// so references are computed before the clock starts.
	distinct []*statement
}

func year(y int) int64 { return bench.Day(y, time.January, 1) }

func dateText(day int64) string { return types.Date(day).String() }

// The paper's four queries in algebra form.
func q1() *statement {
	return &statement{class: classTemporal, shape: "Q1", key: "Q1", plan: bench.Q1Initial}
}

func q2(end int64) *statement {
	return &statement{class: classTemporal, shape: "Q2", key: "Q2 end=" + dateText(end),
		plan: func() *algebra.Node { return bench.Q2Initial(end) }}
}

func q3(cutoff int64) *statement {
	return &statement{class: classTemporal, shape: "Q3", key: "Q3 cutoff=" + dateText(cutoff),
		plan: func() *algebra.Node { return bench.Q3Initial(cutoff) }}
}

func q4() *statement {
	return &statement{class: classTemporal, shape: "Q4", key: "Q4", plan: bench.Q4Initial}
}

// seedForms are the text forms of the evaluation workload
// (bench.SeedQueries), parsed with tsql.Parse and run by the middleware.
func seedForms() []*statement {
	out := make([]*statement, len(bench.SeedQueries))
	for i, q := range bench.SeedQueries {
		name := fmt.Sprintf("S%d", i)
		out[i] = &statement{class: classTemporal, shape: name, key: name, text: q}
	}
	return out
}

func sqlRead(text string) *statement {
	return &statement{class: classSQL, shape: text, key: text, text: text}
}

// plainReads is the plain-SQL read set: a count, a selection and the
// POSITION ⋈ EMPLOYEE join.
func plainReads(payRates ...int) []*statement {
	out := []*statement{sqlRead("SELECT COUNT(*) FROM POSITION")}
	for _, p := range payRates {
		out = append(out, sqlRead(fmt.Sprintf("SELECT PosID, EmpName FROM POSITION WHERE PayRate > %d", p)))
	}
	return append(out, sqlRead(bench.SeedQueries[3]))
}

func writeStmt(op string, batch int) *statement {
	return &statement{class: classWrite, shape: op, key: op, write: op, batch: batch}
}

// paperFull is execution-dominated: the paper's full-size tables
// (2,241 heap pages against the 2,048-page pool) and Q1–Q4 plus the
// text forms, one client, in-process. One Q2 period end and one Q3
// cutoff are drawn per run, from 60-day windows at the turn of 1990:
// with a Q2 period end in 1997 the middleware materialises a result
// that exhausts an 8 GB machine (see NOTES.md), and narrow windows
// keep the cost of a run independent of the draw. Each temporal
// statement is followed by a COUNT(*) and three single-row writes, so
// every statement class is measured.
func paperFull(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	temporal := append([]*statement{q1(),
		q2(year(1990) + rng.Int63n(60)),
		q3(year(1990) - 60 + rng.Int63n(60)),
		q4()}, seedForms()...)
	count := plainReads()[0]
	w := &workload{name: "paper-full", position: 83857, employee: 49972, sessions: 1, setups: 3,
		distinct: append(append([]*statement(nil), temporal...), count)}
	w.cycle = func(s, c int) []*statement {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		var out []*statement
		for _, t := range permute(r, temporal) {
			out = append(out, t, count, writeStmt(writeInsert, 1), writeStmt(writeInsert, 1), writeStmt(writeInsert, 1))
		}
		return out
	}
	return w
}

// Plan-small constants: each Q2 and Q3 draws its constant from these
// small sets, so exact repeats are common and their share is reported.
// Every value keeps the result small: a Q2 period end in 1997 returns
// 17,052 rows that take seconds to join, which would make the workload
// execution-bound.
var (
	smallQ2Ends    = []int64{year(1985), year(1988), year(1990)}
	smallQ3Cutoffs = []int64{year(1986), year(1990), year(1995)}
)

// planSmall is optimizer-dominated: the same query shapes on 2,000
// POSITION and 800 EMPLOYEE rows (41 pages, inside the pool), one
// client, in-process. Each cycle holds Q1, Q4, two Q2 and two Q3 with
// constants drawn per statement, and the seven text forms. Each
// temporal statement is followed by a plain read and two single-row
// writes.
func planSmall(seed int64) *workload {
	reads := plainReads(10)
	w := &workload{name: "plan-small", position: 2000, employee: 800, sessions: 1, setups: 15,
		retry: client.DefaultRetryPolicy()}
	w.distinct = append(w.distinct, q1(), q4())
	for _, e := range smallQ2Ends {
		w.distinct = append(w.distinct, q2(e))
	}
	for _, c := range smallQ3Cutoffs {
		w.distinct = append(w.distinct, q3(c))
	}
	w.distinct = append(append(w.distinct, seedForms()...), reads...)
	w.cycle = func(s, c int) []*statement {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		temporal := []*statement{q1(), q4()}
		for i := 0; i < 2; i++ {
			temporal = append(temporal,
				q2(smallQ2Ends[r.Intn(len(smallQ2Ends))]),
				q3(smallQ3Cutoffs[r.Intn(len(smallQ3Cutoffs))]))
		}
		temporal = append(temporal, seedForms()...)
		var out []*statement
		for i, t := range permute(r, temporal) {
			out = append(out, t, reads[i%len(reads)], writeStmt(writeInsert, 1), writeStmt(writeInsert, 1))
		}
		return out
	}
	return w
}

// servingMix serves two sessions over two loopback TCP connections
// with a durable store: a plain-SQL read majority, writes beside the
// reads, and a VALIDTIME minority through tango.OpenConn on the same
// connection.
func servingMix(seed int64) *workload {
	reads := plainReads(10, 20, 30)
	forms := seedForms()
	temporal := []*statement{forms[0], forms[0], forms[5]}
	w := &workload{name: "serving-mix", position: 8400, employee: 5000, tcp: true, sessions: 2, setups: 7,
		retry:    client.DefaultRetryPolicy(),
		distinct: append(append([]*statement(nil), reads...), forms[0], forms[5])}
	count, selections, join := reads[0], reads[1:len(reads)-1], reads[len(reads)-1]
	w.cycle = func(s, c int) []*statement {
		r := rand.New(rand.NewSource(seed*1000003 + int64(s)*7919 + int64(c)))
		// 19 statements: 12 reads (3 counts, 6 selections with a drawn
		// pay-rate bound, 3 joins) and 3 temporal statements in a seeded
		// order, with a block of 4 writes at a seeded position. Writes
		// come as one block because a write right after a read often
		// meets the garbage collection that read started; only the
		// first write of a block does.
		out := []*statement{count, count, count, join, join, join}
		for i := 0; i < 6; i++ {
			out = append(out, selections[r.Intn(len(selections))])
		}
		out = permute(r, append(out, temporal...))
		at := r.Intn(len(out) + 1)
		writes := []*statement{writeStmt(writeInsert, 1), writeStmt(writeInsert, 1), writeStmt(writeInsert, 1),
			writeStmt(writeLoad, 64)}
		return append(out[:at:at], append(writes, out[at:]...)...)
	}
	return w
}

func permute(r *rand.Rand, in []*statement) []*statement {
	out := make([]*statement, len(in))
	for i, j := range r.Perm(len(in)) {
		out[i] = in[j]
	}
	return out
}

var workloads = map[string]func(seed int64) *workload{
	"paper-full":  paperFull,
	"plan-small":  planSmall,
	"serving-mix": servingMix,
}
