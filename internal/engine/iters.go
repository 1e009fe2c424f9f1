package engine

import (
	"errors"
	"fmt"

	"tango/internal/btree"
	"tango/internal/rel"
	"tango/internal/storage"
	"tango/internal/types"
)

// --- Heap scan ---

// heapScan streams all live tuples of a table page-at-a-time through
// the buffer pool: memory use is one page of decoded tuples, and the
// pool's read accounting reflects the scan. Each tuple holds only the
// table columns keep lists (nil: all of them), in table order.
type heapScan struct {
	table  *Table
	keep   []int
	schema types.Schema

	numPages int
	pageNo   int32
	buf      []types.Tuple
	pos      int
	opened   bool
}

func newHeapScan(t *Table, qualifier string, keep []int) *heapScan {
	schema := t.Schema
	if keep != nil {
		schema = schema.Project(keep)
	}
	if qualifier != "" {
		schema = schema.Qualify(qualifier)
	}
	return &heapScan{table: t, keep: keep, schema: schema}
}

func (s *heapScan) Schema() types.Schema { return s.schema }

func (s *heapScan) Open() error {
	// The scan covers exactly the pinned version's visibility bound:
	// pages appended by concurrent commits lie past it, and the tail
	// page is cut at the version's slot count.
	s.numPages = int(s.table.pages)
	s.pageNo = 0
	s.buf = s.buf[:0]
	s.pos = 0
	s.opened = true
	return nil
}

func (s *heapScan) Next() (types.Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("engine: scan not opened")
	}
	for s.pos >= len(s.buf) {
		if int(s.pageNo) >= s.numPages {
			return nil, false, nil
		}
		maxSlots := -1
		if int(s.pageNo) == s.numPages-1 {
			maxSlots = int(s.table.tailSlots)
		}
		var err error
		s.buf, err = s.table.Heap.PageTuplesN(s.pageNo, maxSlots, s.keep, s.buf[:0])
		if err != nil {
			return nil, false, err
		}
		s.pageNo++
		s.pos = 0
	}
	t := s.buf[s.pos]
	s.pos++
	return t, true, nil
}

func (s *heapScan) Close() error { s.buf = nil; return nil }

// --- Index scan ---

// indexScan reads tuples via a secondary index in key order, optionally
// restricted to a key range, keeping the columns of the heap scan it
// replaces.
type indexScan struct {
	table  *Table
	col    string
	keep   []int
	schema types.Schema
	lo, hi types.Value
	hiIncl bool
	rids   []storage.RecordID
	pos    int
}

func newIndexScan(hs *heapScan, col string, lo, hi types.Value, hiIncl bool) *indexScan {
	return &indexScan{table: hs.table, col: col, keep: hs.keep, schema: hs.schema, lo: lo, hi: hi, hiIncl: hiIncl}
}

func (s *indexScan) Schema() types.Schema { return s.schema }

func (s *indexScan) Open() error {
	idx := s.table.Index(s.col)
	if idx == nil {
		return fmt.Errorf("engine: no index on %s.%s", s.table.Name, s.col)
	}
	s.rids = s.rids[:0]
	s.pos = 0
	// Index trees may be shared with later versions (in-place single
	// row inserts); the version's visibility bound filters entries the
	// snapshot must not see.
	idx.AscendRange(s.lo, s.hi, s.hiIncl, func(e btree.Entry) bool {
		if s.table.visible(e.RID) {
			s.rids = append(s.rids, e.RID)
		}
		return true
	})
	return nil
}

func (s *indexScan) Next() (types.Tuple, bool, error) {
	if s.pos >= len(s.rids) {
		return nil, false, nil
	}
	t, err := s.table.Heap.Get(s.rids[s.pos], s.keep)
	if err != nil {
		return nil, false, err
	}
	s.pos++
	return t, true, nil
}

func (s *indexScan) Close() error { s.rids = nil; return nil }

// --- Filter ---

type filterIter struct {
	in   rel.Iterator
	pred evalFunc
}

func newFilter(in rel.Iterator, pred evalFunc) *filterIter {
	return &filterIter{in: in, pred: pred}
}

func (f *filterIter) Schema() types.Schema { return f.in.Schema() }
func (f *filterIter) Open() error          { return f.in.Open() }
func (f *filterIter) Close() error         { return f.in.Close() }

func (f *filterIter) Next() (types.Tuple, bool, error) {
	for {
		t, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := f.pred(t)
		if err != nil {
			return nil, false, err
		}
		if !v.IsNull() && v.AsBool() {
			return t, true, nil
		}
	}
}

// --- Project ---

type projectIter struct {
	in     rel.Iterator
	schema types.Schema
	exprs  []evalFunc
	rows   types.RowAlloc
}

func newProject(in rel.Iterator, schema types.Schema, exprs []evalFunc) *projectIter {
	return &projectIter{in: in, schema: schema, exprs: exprs}
}

func (p *projectIter) Schema() types.Schema { return p.schema }
func (p *projectIter) Open() error          { return p.in.Open() }
func (p *projectIter) Close() error         { return p.in.Close() }

func (p *projectIter) Next() (types.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out, err := project(&p.rows, p.exprs, t)
	return out, err == nil, err
}

// project evaluates exprs over t into a fresh row carved from rows.
func project(rows *types.RowAlloc, exprs []evalFunc, t types.Tuple) (types.Tuple, error) {
	out := rows.Row(len(exprs))
	for i, e := range exprs {
		v, err := e(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// --- Sort ---

// sortIter materializes its input and sorts it by key expressions.
type sortIter struct {
	in    rel.Iterator
	keys  []evalFunc
	descs []bool
	rows  []types.Tuple // in input order
	perm  []int32       // rows in sorted order
	pos   int
}

func newSort(in rel.Iterator, keys []evalFunc, descs []bool) *sortIter {
	return &sortIter{in: in, keys: keys, descs: descs}
}

func (s *sortIter) Schema() types.Schema { return s.in.Schema() }

// Open drains and sorts the input, closing it on every path.
func (s *sortIter) Open() (err error) {
	if err := s.in.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := s.in.Close(); err == nil {
			err = cerr
		}
	}()
	s.pos = 0
	// One slab holds every row's key values, k per row; the sort
	// orders an int32 permutation over it, on the first key's prefix
	// and then the full comparison.
	k := len(s.keys)
	var rows []types.Tuple
	var ks []types.Value
	for {
		t, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, key := range s.keys {
			v, err := key(t)
			if err != nil {
				return err
			}
			ks = append(ks, v)
		}
		rows = append(rows, t)
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	prefix, exact := types.SortPrefixes(ks, k, s.descs[0])
	cmp := func(a, b int) int {
		return types.CompareTuples(ks[a*k:(a+1)*k], ks[b*k:(b+1)*k], idx, s.descs)
	}
	if exact && k == 1 {
		cmp = nil // the prefix orders the one key alone
	}
	s.rows, s.perm = rows, types.StableOrder(len(rows), prefix, cmp)
	return nil
}

func (s *sortIter) Next() (types.Tuple, bool, error) {
	if s.pos >= len(s.perm) {
		return nil, false, nil
	}
	t := s.rows[s.perm[s.pos]]
	s.pos++
	return t, true, nil
}

// Close releases the sorted rows; Open already closed the input.
func (s *sortIter) Close() error { s.rows, s.perm = nil, nil; return nil }

// --- Join output ---

// joiner is the output stage every join shares. Each candidate pair is
// assembled in pair, a scratch buffer the join owns and never returns:
// the residual runs on it, and only a pair that passes allocates, a
// fresh RowAlloc row holding either the whole pair or, for the last
// join of a block, the block's select list projected from it. So a
// returned tuple is never reused, as rel.Iterator requires, and a
// rejected candidate costs a copy into the buffer, not a row.
type joiner struct {
	schema   types.Schema // output: the pair's, or the projection's
	residual evalFunc     // over the pair; nil passes every pair
	proj     []evalFunc   // over the pair; nil outputs the pair itself
	pair     types.Tuple
	nl       int // width of the pair's left part
	rows     types.RowAlloc
}

func (o *joiner) Schema() types.Schema { return o.schema }

// setLeft fills the left part of the pair.
func (o *joiner) setLeft(l types.Tuple) { copy(o.pair[:o.nl], l) }

// emit completes the pair with the right row r and returns its output
// row; ok is false when the residual rejects the pair.
func (o *joiner) emit(r types.Tuple) (_ types.Tuple, ok bool, _ error) {
	copy(o.pair[o.nl:], r)
	if o.residual != nil {
		v, err := o.residual(o.pair)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() || !v.AsBool() {
			return nil, false, nil
		}
	}
	if o.proj == nil {
		out := o.rows.Row(len(o.pair))
		copy(out, o.pair)
		return out, true, nil
	}
	out, err := project(&o.rows, o.proj, o.pair)
	return out, err == nil, err
}

// --- Nested-loop join ---

// nlJoin is a block nested-loop join: the right input is materialized
// once, the left input streams.
type nlJoin struct {
	left, right rel.Iterator
	joiner
	rightRows []types.Tuple
	cur       types.Tuple
	ri        int
}

func newNLJoin(left, right rel.Iterator, out joiner) *nlJoin {
	return &nlJoin{left: left, right: right, joiner: out}
}

// Open opens both inputs and drains the right one; on failure it
// closes whatever it opened.
func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	rows, err := drain(j.right, j.rightRows[:0])
	if err != nil {
		return errors.Join(err, j.left.Close())
	}
	j.rightRows = rows
	j.cur = nil
	j.ri = 0
	return nil
}

// drain opens in, appends all its rows to dst and closes it, on every
// path.
func drain(in rel.Iterator, dst []types.Tuple) (_ []types.Tuple, err error) {
	if err := in.Open(); err != nil {
		return dst, err
	}
	defer func() {
		if cerr := in.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		t, ok, err := in.Next()
		if err != nil || !ok {
			return dst, err
		}
		dst = append(dst, t)
	}
}

func (j *nlJoin) Next() (types.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.setLeft(t)
			j.ri = 0
		}
		for j.ri < len(j.rightRows) {
			r := j.rightRows[j.ri]
			j.ri++
			if out, ok, err := j.emit(r); err != nil || ok {
				return out, ok, err
			}
		}
		j.cur = nil
	}
}

func (j *nlJoin) Close() error {
	j.rightRows = nil
	return j.left.Close()
}

// --- Index nested-loop join ---

// indexNLJoin probes an index on the inner table for each outer tuple,
// reading the inner rows with the columns of the heap scan it
// replaces. The join must be an equality on outerKey = inner indexed
// column.
type indexNLJoin struct {
	outer    rel.Iterator
	inner    *Table
	innerCol string // indexed column (unqualified)
	keep     []int  // inner columns delivered
	outerKey evalFunc
	joiner

	cur     types.Tuple
	matches []types.Tuple
	mi      int
}

func newIndexNLJoin(outer rel.Iterator, inner *heapScan, innerCol string, outerKey evalFunc, out joiner) *indexNLJoin {
	return &indexNLJoin{
		outer: outer, inner: inner.table, innerCol: innerCol, keep: inner.keep,
		outerKey: outerKey, joiner: out,
	}
}

func (j *indexNLJoin) Open() error {
	if j.inner.Index(j.innerCol) == nil {
		return fmt.Errorf("engine: no index on %s.%s", j.inner.Name, j.innerCol)
	}
	j.cur = nil
	return j.outer.Open()
}

func (j *indexNLJoin) Next() (types.Tuple, bool, error) {
	idx := j.inner.Index(j.innerCol)
	for {
		if j.cur == nil {
			t, ok, err := j.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.setLeft(t)
			key, err := j.outerKey(j.cur)
			if err != nil {
				return nil, false, err
			}
			j.matches = j.matches[:0]
			if !key.IsNull() {
				for _, rid := range idx.Lookup(key) {
					if !j.inner.visible(rid) {
						continue
					}
					it, err := j.inner.Heap.Get(rid, j.keep)
					if err != nil {
						return nil, false, err
					}
					j.matches = append(j.matches, it)
				}
			}
			j.mi = 0
		}
		for j.mi < len(j.matches) {
			r := j.matches[j.mi]
			j.mi++
			if out, ok, err := j.emit(r); err != nil || ok {
				return out, ok, err
			}
		}
		j.cur = nil
	}
}

func (j *indexNLJoin) Close() error { return j.outer.Close() }

// --- Hash join ---

// hashJoin builds a hash table on the right input keyed by the right
// key expressions and probes with the left. Each build row's key values
// are kept beside it, and a probe row's keys are evaluated once, so
// checking a bucket entry compares values without evaluating anything.
type hashJoin struct {
	left, right         rel.Iterator
	leftKeys, rightKeys []evalFunc
	joiner

	build  []types.Tuple
	bkeys  []types.Value // len(rightKeys) values per build row
	table  map[uint64][]int32
	pkeys  []types.Value // the current probe row's key values
	bucket []int32
	bi     int
}

func newHashJoin(left, right rel.Iterator, leftKeys, rightKeys []evalFunc, out joiner) *hashJoin {
	return &hashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys, joiner: out,
		pkeys: make([]types.Value, len(leftKeys)),
	}
}

// evalKeys appends the key values of t to dst and hashes them; valid
// is false when a key is NULL (NULL keys never join).
func evalKeys(t types.Tuple, keys []evalFunc, dst []types.Value) (_ []types.Value, h uint64, valid bool, _ error) {
	h = 14695981039346656037
	valid = true
	for _, k := range keys {
		v, err := k(t)
		if err != nil {
			return dst, 0, false, err
		}
		valid = valid && !v.IsNull()
		h = h*1099511628211 ^ v.Hash()
		dst = append(dst, v)
	}
	return dst, h, valid, nil
}

// Open builds the hash table from the right input, closing it on every
// path, then opens the left input.
func (j *hashJoin) Open() (err error) {
	if err := j.right.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := j.right.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			j.bucket, j.bi = nil, 0
			err = j.left.Open()
		}
	}()
	j.table = map[uint64][]int32{}
	j.build, j.bkeys = j.build[:0], j.bkeys[:0]
	k := len(j.rightKeys)
	for {
		t, ok, err := j.right.Next()
		if err != nil || !ok {
			return err
		}
		var h uint64
		var valid bool
		j.bkeys, h, valid, err = evalKeys(t, j.rightKeys, j.bkeys)
		if err != nil {
			return err
		}
		if !valid {
			j.bkeys = j.bkeys[:len(j.bkeys)-k]
			continue
		}
		j.table[h] = append(j.table[h], int32(len(j.build)))
		j.build = append(j.build, t)
	}
}

func (j *hashJoin) Next() (types.Tuple, bool, error) {
	k := len(j.leftKeys)
	for {
		for j.bi < len(j.bucket) {
			b := int(j.bucket[j.bi])
			j.bi++
			// Verify key equality (hash collisions).
			if !keysEqual(j.pkeys, j.bkeys[b*k:(b+1)*k]) {
				continue
			}
			if out, ok, err := j.emit(j.build[b]); err != nil || ok {
				return out, ok, err
			}
		}
		t, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		_, h, valid, err := evalKeys(t, j.leftKeys, j.pkeys[:0])
		if err != nil {
			return nil, false, err
		}
		j.bucket, j.bi = nil, 0
		if valid {
			j.bucket = j.table[h]
			j.setLeft(t)
		}
	}
}

// keysEqual reports whether two key-value lists are equal, value by
// value.
func keysEqual(a, b []types.Value) bool {
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (j *hashJoin) Close() error {
	j.table, j.build, j.bkeys, j.bucket = nil, nil, nil, nil
	return j.left.Close()
}

// --- Sort-merge join ---

// mergeJoin performs a sort-merge equi-join on single key expressions
// from each side. Inputs are materialized and sorted on their keys.
type mergeJoin struct {
	left, right       rel.Iterator
	leftKey, rightKey evalFunc
	joiner

	lrows, rrows []types.Tuple
	lkeys, rkeys []types.Value
	li, rj       int
	// group state: matching right-run [rstart, rend) for current left key
	rstart, rend int
	gi           int
}

func newMergeJoin(left, right rel.Iterator, leftKey, rightKey evalFunc, out joiner) *mergeJoin {
	return &mergeJoin{
		left: left, right: right,
		leftKey: leftKey, rightKey: rightKey, joiner: out,
	}
}

func materializeKeyed(in rel.Iterator, key evalFunc) (_ []types.Tuple, _ []types.Value, err error) {
	if err := in.Open(); err != nil {
		return nil, nil, err
	}
	// Close on every path, including key-evaluation errors; an input
	// left open here used to leak the underlying cursor.
	defer func() {
		if cerr := in.Close(); err == nil {
			err = cerr
		}
	}()
	var rows []types.Tuple
	var keys []types.Value
	for {
		t, ok, err := in.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		v, err := key(t)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, t)
		keys = append(keys, v)
	}
	prefix, exact := types.SortPrefixes(keys, 1, false)
	cmp := func(a, b int) int { return types.Compare(keys[a], keys[b]) }
	if exact {
		cmp = nil // the prefix orders the key alone
	}
	perm := types.StableOrder(len(rows), prefix, cmp)
	srows := make([]types.Tuple, len(rows))
	skeys := make([]types.Value, len(rows))
	for i, p := range perm {
		srows[i] = rows[p]
		skeys[i] = keys[p]
	}
	return srows, skeys, nil
}

func (j *mergeJoin) Open() error {
	var err error
	j.lrows, j.lkeys, err = materializeKeyed(j.left, j.leftKey)
	if err != nil {
		return err
	}
	j.rrows, j.rkeys, err = materializeKeyed(j.right, j.rightKey)
	if err != nil {
		return err
	}
	j.li, j.rj = 0, 0
	j.rstart, j.rend, j.gi = 0, 0, 0
	return nil
}

func (j *mergeJoin) Next() (types.Tuple, bool, error) {
	for {
		// Emit remaining pairs for the current left row's right-run.
		if j.gi < j.rend {
			if j.gi == j.rstart {
				j.setLeft(j.lrows[j.li])
			}
			r := j.rrows[j.gi]
			j.gi++
			if out, ok, err := j.emit(r); err != nil || ok {
				return out, ok, err
			}
			continue
		}
		// Current left row exhausted its run; advance left.
		if j.rstart < j.rend {
			j.li++
			if j.li < len(j.lkeys) && types.Equal(j.lkeys[j.li], j.lkeys[j.li-1]) {
				j.gi = j.rstart // same key: reuse the run
				continue
			}
			j.rj = j.rend
			j.rstart, j.rend = 0, 0
			continue
		}
		// Find the next matching key runs.
		if j.li >= len(j.lkeys) || j.rj >= len(j.rkeys) {
			return nil, false, nil
		}
		lk, rk := j.lkeys[j.li], j.rkeys[j.rj]
		if lk.IsNull() {
			j.li++
			continue
		}
		if rk.IsNull() {
			j.rj++
			continue
		}
		c := types.Compare(lk, rk)
		switch {
		case c < 0:
			j.li++
		case c > 0:
			j.rj++
		default:
			j.rstart = j.rj
			j.rend = j.rj
			for j.rend < len(j.rkeys) && types.Equal(j.rkeys[j.rend], rk) {
				j.rend++
			}
			j.gi = j.rstart
		}
	}
}

func (j *mergeJoin) Close() error {
	j.lrows, j.rrows = nil, nil
	return nil
}

// --- Distinct ---

type distinctIter struct {
	in   rel.Iterator
	seen map[string]bool
}

func newDistinct(in rel.Iterator) *distinctIter { return &distinctIter{in: in} }

func (d *distinctIter) Schema() types.Schema { return d.in.Schema() }

func (d *distinctIter) Open() error {
	d.seen = map[string]bool{}
	return d.in.Open()
}

func (d *distinctIter) Next() (types.Tuple, bool, error) {
	for {
		t, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := canonicalKey(t)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return t, true, nil
	}
}

func (d *distinctIter) Close() error {
	d.seen = nil
	return d.in.Close()
}

// canonicalKey renders a tuple such that equal tuples (per
// types.Equal) yield equal keys.
func canonicalKey(t types.Tuple) string {
	buf := make([]byte, 0, 32)
	for _, v := range t {
		if v.IsNull() {
			buf = append(buf, 0, 'N')
		} else if v.Kind() == types.KindString {
			buf = append(buf, 's', ':')
			buf = append(buf, v.AsString()...)
		} else {
			buf = append(buf, 'n', ':')
			buf = append(buf, fmt.Sprintf("%v", v.AsFloat())...)
		}
		buf = append(buf, 0x1f)
	}
	return string(buf)
}

// --- Union ---

// unionIter concatenates two inputs with identical arity.
type unionIter struct {
	a, b   rel.Iterator
	onB    bool
	schema types.Schema
}

func newUnionAll(a, b rel.Iterator) *unionIter {
	return &unionIter{a: a, b: b, schema: a.Schema()}
}

func (u *unionIter) Schema() types.Schema { return u.schema }

func (u *unionIter) Open() error {
	u.onB = false
	if err := u.a.Open(); err != nil {
		return err
	}
	if err := u.b.Open(); err != nil {
		return errors.Join(err, u.a.Close())
	}
	return nil
}

func (u *unionIter) Next() (types.Tuple, bool, error) {
	if !u.onB {
		t, ok, err := u.a.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		u.onB = true
	}
	return u.b.Next()
}

func (u *unionIter) Close() error {
	err1 := u.a.Close()
	err2 := u.b.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
