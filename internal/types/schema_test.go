package types

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func testSchema() Schema {
	return NewSchema(
		Column{"PosID", KindInt},
		Column{"EmpName", KindString},
		Column{"T1", KindDate},
		Column{"T2", KindDate},
	)
}

func TestColumnIndex(t *testing.T) {
	s := testSchema()
	if i := s.ColumnIndex("PosID"); i != 0 {
		t.Errorf("PosID index = %d", i)
	}
	if i := s.ColumnIndex("posid"); i != 0 {
		t.Errorf("case-insensitive lookup failed: %d", i)
	}
	if i := s.ColumnIndex("Nope"); i != -1 {
		t.Errorf("missing column index = %d, want -1", i)
	}
}

func TestQualifiedLookup(t *testing.T) {
	s := testSchema().Qualify("A")
	if s.Cols[0].Name != "A.PosID" {
		t.Fatalf("qualify: %v", s.Cols[0].Name)
	}
	// Unqualified lookup should still find the qualified column.
	if i := s.ColumnIndex("PosID"); i != 0 {
		t.Errorf("unqualified lookup in qualified schema = %d", i)
	}
	if i := s.ColumnIndex("A.PosID"); i != 0 {
		t.Errorf("qualified lookup = %d", i)
	}
	if i := s.ColumnIndex("B.PosID"); i != -1 {
		t.Errorf("wrong qualifier should miss, got %d", i)
	}
	u := s.Unqualified()
	if u.Cols[0].Name != "PosID" {
		t.Errorf("Unqualified: %v", u.Cols[0].Name)
	}
}

func TestProjectConcat(t *testing.T) {
	s := testSchema()
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Cols[0].Name != "T1" || p.Cols[1].Name != "PosID" {
		t.Fatalf("Project: %v", p)
	}
	c := s.Concat(p)
	if c.Len() != 6 {
		t.Fatalf("Concat len = %d", c.Len())
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema()
	b := testSchema()
	if !a.Equal(b) {
		t.Error("identical schemas not equal")
	}
	b.Cols[0].Name = "posid"
	if !a.Equal(b) {
		t.Error("case-insensitive equality failed")
	}
	b.Cols[0].Kind = KindString
	if a.Equal(b) {
		t.Error("kind mismatch should not be equal")
	}
}

func TestCompareTuples(t *testing.T) {
	a := Tuple{Int(1), Str("x"), Int(5)}
	b := Tuple{Int(1), Str("y"), Int(3)}
	if c := CompareTuples(a, b, []int{0}, nil); c != 0 {
		t.Errorf("equal on key 0: %d", c)
	}
	if c := CompareTuples(a, b, []int{1}, nil); c != -1 {
		t.Errorf("key 1: %d", c)
	}
	if c := CompareTuples(a, b, []int{2}, nil); c != 1 {
		t.Errorf("key 2: %d", c)
	}
	if c := CompareTuples(a, b, []int{2}, []bool{true}); c != -1 {
		t.Errorf("descending key 2: %d", c)
	}
	if c := CompareTuples(a, b, []int{0, 1}, nil); c != -1 {
		t.Errorf("composite key: %d", c)
	}
	if !TupleEqualOn(a, b, []int{0}) || TupleEqualOn(a, b, []int{1}) {
		t.Error("TupleEqualOn wrong")
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := a.Clone()
	b[0] = Int(9)
	if a[0].AsInt() != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestPeriodOps(t *testing.T) {
	p := Period{2, 20}
	q := Period{5, 25}
	if !p.Overlaps(q) || !q.Overlaps(p) {
		t.Error("overlap expected")
	}
	r, ok := p.Intersect(q)
	if !ok || r != (Period{5, 20}) {
		t.Errorf("intersect = %v, %v", r, ok)
	}
	if p.Overlaps(Period{20, 30}) {
		t.Error("closed-open adjacency must not overlap")
	}
	if !p.Meets(Period{20, 30}) {
		t.Error("Meets expected")
	}
	if !p.Contains(2) || p.Contains(20) || !p.Contains(19) {
		t.Error("Contains closed-open semantics wrong")
	}
	if p.Duration() != 18 {
		t.Errorf("Duration = %d", p.Duration())
	}
	if (Period{5, 5}).Valid() || (Period{6, 5}).Valid() {
		t.Error("degenerate periods must be invalid")
	}
	if m := p.Merge(q); m != (Period{2, 25}) {
		t.Errorf("Merge = %v", m)
	}
}

func TestPeriodIntersectCommutes(t *testing.T) {
	for s1 := int64(0); s1 < 6; s1++ {
		for e1 := s1 + 1; e1 < 8; e1++ {
			for s2 := int64(0); s2 < 6; s2++ {
				for e2 := s2 + 1; e2 < 8; e2++ {
					p, q := Period{s1, e1}, Period{s2, e2}
					r1, ok1 := p.Intersect(q)
					r2, ok2 := q.Intersect(p)
					if ok1 != ok2 || (ok1 && r1 != r2) {
						t.Fatalf("intersect not commutative: %v %v", p, q)
					}
					if ok1 != p.Overlaps(q) {
						t.Fatalf("Overlaps inconsistent with Intersect: %v %v", p, q)
					}
				}
			}
		}
	}
}

// TestStableOrderPrefixAgreesWithCompare checks that sorting on
// SortPrefixes, with the comparator only for equal prefixes, yields
// exactly the permutation the comparator alone yields, for every kind
// class, with NULLs, ties, shared string prefixes, -0 and mixed kinds.
func TestStableOrderPrefixAgreesWithCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func() Value{
		"int":    func() Value { return Int(rng.Int63n(21) - 10) },
		"bigint": func() Value { return Int(rng.Int63() - rng.Int63()) },
		"date":   func() Value { return Date(rng.Int63n(50)) },
		"bool":   func() Value { return Bool(rng.Intn(2) == 0) },
		"float": func() Value {
			return []Value{Float(0), Float(math.Copysign(0, -1)), Float(-1.5), Float(2.25),
				Float(math.Inf(1)), Float(math.Inf(-1)), Float(rng.NormFloat64())}[rng.Intn(7)]
		},
		"string": func() Value {
			return Str([]string{"", "a", "ab", "abcdefgh", "abcdefghi", "abcdefghj", "b", "\x00"}[rng.Intn(8)])
		},
		"int+float": func() Value {
			if rng.Intn(2) == 0 {
				return Int(rng.Int63n(5))
			}
			return Float(float64(rng.Intn(10)) / 2)
		},
		"int+string": func() Value {
			if rng.Intn(2) == 0 {
				return Int(rng.Int63n(5))
			}
			return Str([]string{"1", "3", "x"}[rng.Intn(3)])
		},
	}
	for name, gen := range gens {
		for _, desc := range []bool{false, true} {
			vals := make([]Value, 300)
			for i := range vals {
				if rng.Intn(8) == 0 {
					vals[i] = Null
				} else {
					vals[i] = gen()
				}
			}
			cmp := func(i, j int) int {
				return CompareTuples(vals[i:i+1], vals[j:j+1], []int{0}, []bool{desc})
			}
			prefix, exact := SortPrefixes(vals, 1, desc)
			mixed := name == "int+float" || name == "int+string"
			if mixed != (prefix == nil) {
				t.Errorf("%s: prefix nil = %v, want %v", name, prefix == nil, mixed)
			}
			want := StableOrder(len(vals), nil, cmp)
			if !slices.Equal(StableOrder(len(vals), prefix, cmp), want) {
				t.Errorf("%s desc=%v: the prefixed order differs from the comparator's", name, desc)
			}
			if exact && !slices.Equal(StableOrder(len(vals), prefix, nil), want) {
				t.Errorf("%s desc=%v: the exact prefix alone misorders", name, desc)
			}
			if exact && (name == "string" || mixed) {
				t.Errorf("%s: prefix claimed exact", name)
			}
		}
	}
	if p, _ := SortPrefixes([]Value{Float(1), Float(math.NaN())}, 1, false); p != nil {
		t.Error("a NaN key got a prefix")
	}
	// NULL and the least integer share prefix 0: not exact.
	if _, exact := SortPrefixes([]Value{Null, Int(math.MinInt64)}, 1, false); exact {
		t.Error("NULL and MinInt64 share a prefix, yet it was exact")
	}
	// A stride picks every k-th value: the first key of k-key rows.
	if p, exact := SortPrefixes([]Value{Int(2), Str("x"), Int(1), Str("y")}, 2, false); len(p) != 2 || p[0] <= p[1] || !exact {
		t.Errorf("strided prefixes = %v, exact %v", p, exact)
	}
}
