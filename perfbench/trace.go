package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one statement share
// Stmt; the statement's root span has Parent 0 and ID == Stmt.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Stmt   int64         `json:"stmt"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out once the
// run ends so recording stays cheap. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 opens a statement root) and
// returns its ID.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	stmt := id
	if parent != 0 {
		stmt = t.spans[parent-1].Stmt
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTimes is the result of attributing a trace, by span name: the
// summed self time, the summed duration, the self time of the span's
// children, and the number of statements that entered it.
type layerTimes struct {
	self, total, childSelf map[string]time.Duration
	stmts                  map[string]int
	// wall is the summed duration of the statement roots; covered is
	// the summed self time of every non-root span.
	wall, covered time.Duration
}

// attribute computes each span's self time — its duration minus the
// part of it that its children cover — and sums it by span name.
// Children running concurrently (prefetching fetches) are merged into
// one covered interval, so their parent is never charged negative time.
func (t *tracer) attribute() layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{},
		childSelf: map[string]time.Duration{}, stmts: map[string]int{}}
	type entry struct {
		name string
		stmt int64
	}
	seen := map[entry]bool{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed: the call it wrapped did not return
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		if s.Parent == 0 {
			lt.wall += s.End - s.Start
			continue
		}
		lt.self[s.Name] += self
		lt.total[s.Name] += s.End - s.Start
		lt.childSelf[spans[s.Parent-1].Name] += self
		lt.covered += self
		k := entry{s.Name, s.Stmt}
		if !seen[k] {
			seen[k] = true
			lt.stmts[s.Name]++
		}
	}
	return lt
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}
