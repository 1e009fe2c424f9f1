package xxl

// Parallel execution support: bounded worker pools for sort-run
// generation, a stable in-memory chunk merge, and the ParallelStats
// shape report that operators hand to the executor through their
// OnStats callbacks (so this package stays free of telemetry
// dependencies).
//
// Every parallel path in this package preserves the sequential
// operator's output order exactly — the optimizer relies on list
// equivalence for middleware-resident plan parts, so "same tuples,
// same order" is a hard contract, not best effort:
//
//   - sort runs are keyed by chunk index and merged with a heap that
//     breaks ties on run index, so the external sort stays stable no
//     matter which worker finishes first;
//   - the in-memory parallel sort splits the buffer into contiguous
//     chunks and merges them with the same tie-break;
//   - partitioned operators (see partition.go) split their sorted
//     inputs at key boundaries and concatenate partition results in
//     key order.

import (
	"container/heap"
	"os"
	"sync"

	"tango/internal/types"
)

// ParallelStats describes the parallel shape of one operator
// execution: how many workers ran, how many partitions (sort runs /
// chunks, aggregation group ranges, join key ranges) they processed,
// and the partition size spread for skew monitoring.
type ParallelStats struct {
	// Op is the operator label, e.g. "Sort^M" or "TAggr^M".
	Op string
	// Workers is the number of concurrent workers used (1 = sequential).
	Workers int
	// Partitions is the number of independent work units.
	Partitions int
	// Rows is the total rows across all partitions.
	Rows int64
	// MaxPart and MinPart are the largest and smallest partition sizes
	// in rows.
	MaxPart int
	MinPart int
}

// observe folds one partition of n rows into the stats.
func (p *ParallelStats) observe(n int) {
	p.Partitions++
	p.Rows += int64(n)
	if n > p.MaxPart {
		p.MaxPart = n
	}
	if p.Partitions == 1 || n < p.MinPart {
		p.MinPart = n
	}
}

// Skew is the largest partition relative to the mean partition size;
// 1 means perfectly balanced, higher means one partition dominates.
func (p ParallelStats) Skew() float64 {
	if p.Partitions == 0 || p.Rows == 0 {
		return 1
	}
	return float64(p.MaxPart) / (float64(p.Rows) / float64(p.Partitions))
}

// runGen generates sorted spill runs for the external sort, fanning
// chunk sort + spill out to at most par workers. The coordinator keeps
// reading input while workers sort and write, which overlaps input
// (wire) latency with sort compute. Files are recorded under their
// chunk index so the merge sees them in input order.
type runGen struct {
	s   *Sort
	par int
	sem chan struct{}
	wg  sync.WaitGroup

	// Held across run-file removal on abort paths: ordered, not a
	// latch.
	mu       sync.Mutex //tango:lock-order spill
	files    map[int]*os.File
	firstErr error
	spilled  int64 // bytes written to run files

	chunks int // dispatched chunk count; coordinator-only
	stats  ParallelStats
}

func newRunGen(s *Sort, par int) *runGen {
	g := &runGen{s: s, par: par, files: make(map[int]*os.File)}
	if par > 1 {
		g.sem = make(chan struct{}, par)
	}
	return g
}

// spill takes ownership of buf, sorts it and writes it as a run
// (synchronously when sequential, on a worker otherwise), and returns
// an empty buffer the coordinator can fill next. Call err() afterwards
// to learn about failures; spill itself never blocks on completion.
func (g *runGen) spill(buf []types.Tuple) []types.Tuple {
	idx := g.chunks
	g.chunks++
	g.stats.observe(len(buf))
	if g.par <= 1 {
		g.s.sortBuf(buf)
		f, n, err := writeRun(buf)
		g.record(idx, f, n, err)
		return buf[:0] // synchronous: safe to reuse
	}
	g.sem <- struct{}{} // bound in-flight chunks (and their memory)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.sem }()
		g.s.sortBuf(buf) // reads only immutable keys/descs
		f, n, err := writeRun(buf)
		g.record(idx, f, n, err)
	}()
	return make([]types.Tuple, 0, cap(buf))
}

func (g *runGen) record(idx int, f *os.File, n int64, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		if g.firstErr == nil {
			g.firstErr = err
		}
		return
	}
	g.files[idx] = f
	g.spilled += n
}

// spilledBytes reports the bytes written across all recorded runs.
func (g *runGen) spilledBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spilled
}

// err reports the first worker failure seen so far; the coordinator
// polls it to stop reading input early on a failed spill.
func (g *runGen) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstErr
}

// finish waits for all workers and hands the run files over in chunk
// order. On any worker error the files are removed and the error
// returned. After finish the generator owns nothing.
func (g *runGen) finish() ([]*os.File, error) {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.firstErr != nil {
		for _, f := range g.files {
			removeRuns([]*os.File{f})
		}
		g.files = map[int]*os.File{}
		return nil, g.firstErr
	}
	files := make([]*os.File, 0, len(g.files))
	for i := 0; i < g.chunks; i++ {
		if f, ok := g.files[i]; ok {
			files = append(files, f)
		}
	}
	g.files = map[int]*os.File{}
	return files, nil
}

// abort waits for all workers and removes every run produced; used on
// Open error paths so a failed sort leaks no temp files.
func (g *runGen) abort() {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.files {
		removeRuns([]*os.File{f})
	}
	g.files = map[int]*os.File{}
}

// mergeSortedChunks merges sorted contiguous chunks of one underlying
// buffer into a fresh slice. Ties break on chunk index, which — for
// chunks split from a single input in order — makes the merge stable.
func mergeSortedChunks(chunks [][]types.Tuple, keys []int, descs []bool) []types.Tuple {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]types.Tuple, 0, total)
	h := &mergeHeap{keys: keys, descs: descs}
	pos := make([]int, len(chunks))
	for i, c := range chunks {
		if len(c) > 0 {
			h.items = append(h.items, mergeItem{tuple: c[0], src: i})
			pos[i] = 1
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		top := h.items[0]
		out = append(out, top.tuple)
		src := top.src
		if p := pos[src]; p < len(chunks[src]) {
			pos[src]++
			h.items[0].tuple = chunks[src][p]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// minParallelSort is the smallest in-memory buffer worth splitting
// across workers; below it the merge overhead dominates.
const minParallelSort = 4096

// sortParallel sorts buf with up to par workers: contiguous chunks are
// sorted concurrently and merged stably. Sequential (par <= 1) or
// small inputs use plain sortBuf. The returned slice holds the sorted
// tuples (it may be buf itself or a fresh merge output).
func (s *Sort) sortParallel(buf []types.Tuple, par int, stats *ParallelStats) []types.Tuple {
	if par <= 1 || len(buf) < minParallelSort {
		s.sortBuf(buf)
		stats.observe(len(buf))
		return buf
	}
	size := (len(buf) + par - 1) / par
	chunks := make([][]types.Tuple, 0, par)
	for lo := 0; lo < len(buf); lo += size {
		hi := lo + size
		if hi > len(buf) {
			hi = len(buf)
		}
		chunks = append(chunks, buf[lo:hi])
		stats.observe(hi - lo)
	}
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c []types.Tuple) {
			defer wg.Done()
			s.sortBuf(c)
		}(c)
	}
	wg.Wait()
	return mergeSortedChunks(chunks, s.keys, s.descs)
}
