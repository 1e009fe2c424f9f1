package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"tango/internal/algebra"
	"tango/internal/bench"
	"tango/internal/storage"
	"tango/internal/telemetry"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups overrides how many times set-up runs when positive.
	setups int
	// position and employee override the workload's table sizes when
	// positive (the self-test runs tiny tables).
	position, employee int
	// corrupt flips one reference fingerprint, so the run must fail
	// its check (the self-test proves checking is not vacuous).
	corrupt bool
	// log receives progress and diagnostics.
	log io.Writer
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseStats accumulates one timed phase over all sessions.
type phaseStats struct {
	mu        sync.Mutex
	lat       map[string][]time.Duration // by statement class
	attempted int
	failed    int
	errs      []string // the first few failures
	// stmtRate and rowRate sum each session's statements and rows per
	// second of its loop, not counting the benchmark's result checks.
	stmtRate, rowRate float64
	written           []int64

	// Temporal statements: optimizer search figures and middleware
	// operator self times (operator times are traced phases only).
	optimized, truncated           int
	classes, elements, plansCosted int64
	fallbacks                      int
	taggr, sort, join, transfer    time.Duration
}

func newPhaseStats() *phaseStats {
	return &phaseStats{lat: map[string][]time.Duration{}}
}

func (p *phaseStats) fail(msg string) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, msg)
	}
}

// merge adds q, one session's share of the phase, into p.
func (p *phaseStats) merge(q *phaseStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, l := range q.lat {
		p.lat[c] = append(p.lat[c], l...)
	}
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
	p.stmtRate += q.stmtRate
	p.rowRate += q.rowRate
	p.written = append(p.written, q.written...)
	p.optimized += q.optimized
	p.truncated += q.truncated
	p.classes += q.classes
	p.elements += q.elements
	p.plansCosted += q.plansCosted
	p.fallbacks += q.fallbacks
	p.taggr += q.taggr
	p.sort += q.sort
	p.join += q.join
	p.transfer += q.transfer
}

// shapeTracker follows temporal statements across every phase of a
// run: changes of the chosen plan's signature per statement shape, and
// how many statements exactly repeat an earlier one.
type shapeTracker struct {
	mu       sync.Mutex
	last     map[string]string
	seen     map[string]bool
	switches int
	repeats  int
	total    int
}

func newShapeTracker() *shapeTracker {
	return &shapeTracker{last: map[string]string{}, seen: map[string]bool{}}
}

func (t *shapeTracker) observe(st *statement, sig string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.last[st.shape]; ok && prev != sig {
		t.switches++
	}
	t.last[st.shape] = sig
	t.total++
	if t.seen[st.key] {
		t.repeats++
	}
	t.seen[st.key] = true
}

// runner holds a run's shared state.
type runner struct {
	// writes lets a write run only while no other statement runs.
	writes sync.RWMutex
	cfg    config
	w      *workload
	sys    *system
	sess   []*session
	refs   map[string]*reference
	shapes *shapeTracker
}

// runBenchmark executes one run and returns its report. A run whose
// outputs are wrong or that leaks returns a report with Correct false.
func runBenchmark(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	w := mk(cfg.seed)
	if cfg.position > 0 {
		w.position = cfg.position
	}
	if cfg.employee > 0 {
		w.employee = cfg.employee
	}
	tmp, err := tmpRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up: data generation, load, ANALYZE and listen, several times;
	// the last system is kept.
	var setupTimes []float64
	var sys *system
	setups := w.setups
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	for i := 0; i < setups; i++ {
		start := time.Now()
		s, err := setup(w, cfg.seed, tmp)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		sys = s
	}
	defer sys.close()
	base := takeBaseline(sys)

	r := &runner{cfg: cfg, w: w, sys: sys, refs: map[string]*reference{},
		shapes: newShapeTracker()}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for i := 0; i < w.sessions; i++ {
		se, err := sys.openSession(w, i, tr)
		if err != nil {
			r.closeSessions()
			return nil, err
		}
		r.sess = append(r.sess, se)
	}
	defer r.closeSessions()

	// References, before the clock starts.
	refStart := time.Now()
	for _, st := range w.distinct {
		t0 := time.Now()
		ref, err := computeReference(st, r.sess[0].mw, sys.db)
		if err != nil {
			return nil, err
		}
		r.refs[st.key] = ref
		fmt.Fprintf(cfg.log, "reference %-40.40s %6d rows %8.1f ms (%s)\n", st.key, ref.fp.rows,
			float64(time.Since(t0).Microseconds())/1e3, ref.how)
	}
	fmt.Fprintf(cfg.log, "references: %d in %.1f s\n", len(w.distinct), time.Since(refStart).Seconds())
	if cfg.corrupt {
		r.refs[w.distinct[0].key].fp.bag ^= 1
	}

	// One untimed cycle lets the buffer pool, the heap and the adaptive
	// cost factors settle; its results are checked like any other.
	warm := r.phase(0, nil)
	debug.FreeOSMemory()
	resetPeakRSS()
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var phases []*phaseStats
	var traced *phaseStats
	var tracedIO ioCounters
	reg := telemetry.NewRegistry()
	if cfg.trace {
		// Half untraced, half traced: the ratio of their throughputs is
		// the tracing overhead.
		half := time.Duration(cfg.seconds * float64(time.Second) / 2)
		phases = append(phases, r.phase(half, nil))
		// The client's own wire counters are read in the traced half.
		for _, se := range r.sess {
			se.conn.Metrics = reg
		}
		before := readIO(sys)
		traced = r.phase(half, tr)
		tracedIO = readIO(sys).sub(before)
		phases = append(phases, traced)
	} else {
		phases = append(phases, r.phase(time.Duration(cfg.seconds*float64(time.Second)), nil))
	}
	peak := peakRSSMB()

	all := newPhaseStats()
	for _, p := range append([]*phaseStats{warm}, phases...) {
		all.attempted += p.attempted
		all.failed += p.failed
		all.errs = append(all.errs, p.errs...)
		all.written = append(all.written, p.written...)
	}
	if err := r.checkLog(all.written); err != nil {
		all.fail(err.Error())
	}
	r.closeSessions()
	if err := checkLeaks(sys, base); err != nil {
		rep.Correct = false
		fmt.Fprintln(cfg.log, err)
	}
	for _, e := range all.errs {
		fmt.Fprintln(cfg.log, "failed:", e)
	}
	rep.Attempted = all.attempted
	rep.Failed = all.failed
	if rep.Failed > 0 {
		rep.Correct = false
	}
	if rep.Attempted == 0 {
		rep.Correct = false
		rep.Attempted = 1
		rep.Failed = 1
	}

	if !cfg.trace {
		endToEnd(rep, phases[0], median(setupTimes), peak)
		return rep, nil
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "spans written to %s\n", path)
	perLayer(rep, r, phases[0], traced, tr.attribute(), tracedIO, reg)
	return rep, nil
}

func (r *runner) closeSessions() {
	for _, se := range r.sess {
		if err := se.conn.Close(); err != nil {
			fmt.Fprintf(r.cfg.log, "session %d close: %v\n", se.id, err)
		}
	}
	r.sess = nil
}

// phase runs every session's closed loop for at least d, ending each
// session on a cycle boundary.
func (r *runner) phase(d time.Duration, tr *tracer) *phaseStats {
	ps := newPhaseStats()
	var wg sync.WaitGroup
	for _, se := range r.sess {
		wg.Add(1)
		go func(se *session) {
			defer wg.Done()
			r.loop(se, d, tr, ps)
		}(se)
	}
	wg.Wait()
	return ps
}

// loop is one session's closed loop: it issues the session's cycles
// until d has passed, then finishes the cycle it is in. It always runs
// at least one cycle.
func (r *runner) loop(se *session, d time.Duration, tr *tracer, ps *phaseStats) {
	local := newPhaseStats()
	var rows int64
	var checking time.Duration
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		for _, st := range r.w.cycle(se.id, se.cycle) {
			unlock := r.isolate(st)
			root := tr.begin("stmt", 0)
			t0 := time.Now()
			o, err := se.exec(st, tr, root)
			el := time.Since(t0)
			tr.end(root)
			unlock()
			local.attempted++
			c0 := time.Now()
			if err != nil {
				local.fail(fmt.Sprintf("%s: %v", st.key, err))
			} else {
				local.lat[st.class] = append(local.lat[st.class], el)
				rows += r.record(local, st, o, se.mw.Opt.MaxPlans)
			}
			checking += time.Since(c0)
		}
		se.cycle++
	}
	if busy := time.Since(start) - checking; busy > 0 {
		local.stmtRate = float64(local.attempted) / busy.Seconds()
		local.rowRate = float64(rows) / busy.Seconds()
	}
	ps.merge(local)
}

// isolate admits a statement: a write waits until no other statement
// runs and holds the others off until it ends; reads and temporal
// statements run concurrently with each other. On two vCPUs a write
// that shares the processors with the other client's parallel reads
// measured that contention, not the write path, and its latency
// swung by half between runs. The wait is not part of the latency.
func (r *runner) isolate(st *statement) func() {
	if st.class == classWrite {
		r.writes.Lock()
		return r.writes.Unlock
	}
	r.writes.RLock()
	return r.writes.RUnlock
}

// record checks one successful statement's result against its
// reference and accounts for it; it returns the rows the statement
// returned or wrote.
func (r *runner) record(p *phaseStats, st *statement, o outcome, maxPlans int) int64 {
	if o.written != nil {
		p.written = append(p.written, o.written...)
		return int64(len(o.written))
	}
	if msg := r.check(st, o); msg != "" {
		p.fail(msg)
	}
	if res := o.res; res != nil {
		r.shapes.observe(st, bench.PlanSignature(res.Best))
		p.optimized++
		p.classes += int64(res.Classes)
		p.elements += int64(res.Elements)
		p.plansCosted += int64(res.PlansCosted)
		if res.PlansCosted >= maxPlans {
			p.truncated++
		}
		if o.fallback {
			p.fallbacks++
		}
	}
	if o.ops != nil {
		o.ops.Walk(func(s *telemetry.OpStats) {
			n, ok := s.Node.(*algebra.Node)
			if !ok || n == nil {
				return
			}
			switch n.Op {
			case algebra.OpTAggr:
				p.taggr += s.SelfTime()
			case algebra.OpSort:
				p.sort += s.SelfTime()
			case algebra.OpJoin, algebra.OpTJoin:
				p.join += s.SelfTime()
			case algebra.OpTM, algebra.OpTD:
				p.transfer += s.SelfTime()
			}
		})
	}
	return int64(len(o.out.Tuples))
}

// check compares a timed result with the statement's reference.
func (r *runner) check(st *statement, o outcome) string {
	ref := r.refs[st.key]
	if ref == nil {
		return fmt.Sprintf("%s: no reference", st.key)
	}
	if got := fingerprintOf(o.out, ref.keys); got != ref.fp {
		return fmt.Sprintf("%s: result differs from reference (%d rows, want %d)", st.key, got.rows, ref.fp.rows)
	}
	return ""
}

// checkLog reads the log table back and compares it with the rows
// the writes stored.
func (r *runner) checkLog(written []int64) error {
	out, _, err := r.sess[0].conn.QueryAll("SELECT ID, SESS, NOTE FROM " + logTable)
	if err != nil {
		return fmt.Errorf("log check: %w", err)
	}
	if len(out.Tuples) != len(written) {
		return fmt.Errorf("log check: %d rows stored, %d written", len(out.Tuples), len(written))
	}
	want := map[int64]bool{}
	for _, id := range written {
		want[id] = true
	}
	for _, t := range out.Tuples {
		id := t[0].AsInt()
		if !want[id] || t[2].AsString() != fmt.Sprintf("n%d", id) {
			return fmt.Errorf("log check: unexpected row %v", t)
		}
		delete(want, id)
	}
	return nil
}

// ioCounters snapshots the storage and engine counters.
type ioCounters struct {
	pool                   storage.PoolStats
	disk                   storage.IOStats
	commits                int64
	commitWait             time.Duration
	fsCommits, fsyncs      int64
	admitted, queued, shed int64
	mallocs, allocBytes    uint64
	pauseNS                uint64
}

func readIO(sys *system) ioCounters {
	var c ioCounters
	c.pool = sys.db.Pool().Snapshot()
	c.disk = sys.db.Disk().Snapshot()
	c.commits, c.commitWait = sys.db.CommitStats()
	if sys.db.Durable() {
		c.fsCommits, _, c.fsyncs = sys.db.FileDisk().GroupCommitStats()
	}
	c.admitted, c.queued, c.shed = sys.srv.Admitted(), sys.srv.Queued(), sys.srv.Shed()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.pauseNS = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	return c
}

func (c ioCounters) sub(b ioCounters) ioCounters {
	return ioCounters{
		pool:       c.pool.Sub(b.pool),
		disk:       c.disk.Sub(b.disk),
		commits:    c.commits - b.commits,
		commitWait: c.commitWait - b.commitWait,
		fsCommits:  c.fsCommits - b.fsCommits,
		fsyncs:     c.fsyncs - b.fsyncs,
		admitted:   c.admitted - b.admitted,
		queued:     c.queued - b.queued,
		shed:       c.shed - b.shed,
		mallocs:    c.mallocs - b.mallocs,
		allocBytes: c.allocBytes - b.allocBytes,
		pauseNS:    c.pauseNS - b.pauseNS,
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
