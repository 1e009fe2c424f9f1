package xxl

import (
	"math/rand"
	"sort"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// manyTies builds n rows (K, D, T1, T2, Seq) in random order whose
// sort keys repeat heavily: K takes 4 values, D two, T1 six and T2
// three past T1. Seq is the input position, so any reordering of
// equal keys shows up in the output.
func manyTies(rng *rand.Rand, n int) *rel.Relation {
	r := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "D", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "Seq", Kind: types.KindInt},
	))
	for i := 0; i < n; i++ {
		t1 := rng.Int63n(6)
		r.Append(types.Tuple{
			types.Int(rng.Int63n(4)), types.Str(string(rune('a' + rng.Intn(2)))),
			types.Int(t1), types.Int(t1 + 1 + rng.Int63n(3)), types.Int(int64(i)),
		})
	}
	return r
}

// stableOracle is the reference order: sort.SliceStable over a copy.
func stableOracle(in *rel.Relation, keys []int, descs []bool) *rel.Relation {
	out := &rel.Relation{Schema: in.Schema, Tuples: append([]types.Tuple(nil), in.Tuples...)}
	sort.SliceStable(out.Tuples, func(i, j int) bool {
		return types.CompareTuples(out.Tuples[i], out.Tuples[j], keys, descs) < 0
	})
	return out
}

// TestSortStableUnderTies checks SORT^M against the sort.SliceStable
// oracle on many-tie input, in memory and spilled, sequential and
// chunk-parallel.
func TestSortStableUnderTies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := manyTies(rng, 5000)
	keys, descs := []int{0, 1}, []bool{false, true}
	want := stableOracle(in, keys, descs)
	for _, mem := range []int{DefaultSortMemory, 700} {
		for _, par := range []int{1, 2} {
			s := NewSortDesc(in.Iter(), keys, descs)
			s.MemTuples, s.Parallelism = mem, par
			got, err := rel.Drain(s)
			if err != nil {
				t.Fatal(err)
			}
			if !rel.EqualAsLists(got, want) {
				t.Fatalf("mem %d par %d: SORT^M differs from the stable oracle", mem, par)
			}
			if mem < in.Cardinality() && s.SpilledBytes() == 0 {
				t.Fatalf("mem %d: sort did not spill", mem)
			}
		}
	}
}

// TestTAggrStableUnderTies runs TAGGR^M (sequential and partitioned)
// on many-tie input ordered by the sort.SliceStable oracle, where
// whole runs of tuples share T1 and T2, against the brute-force
// evaluation of every interval.
func TestTAggrStableUnderTies(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := stableOracle(manyTies(rng, 3000), []int{0, 2}, nil)
	out := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
	)
	for _, agg := range []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 4},
		{Kind: AggMin, Col: 4}, {Kind: AggMax, Col: 4},
	} {
		want := bruteTAggr(in, 0, 2, 3, agg)
		for _, it := range []rel.Iterator{
			NewTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out),
			NewPTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out, 2),
		} {
			got, err := rel.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cardinality() != len(want) {
				t.Fatalf("%s %T: %d rows, want %d", agg.Kind, it, got.Cardinality(), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if !types.Equal(got.Tuples[i][j], want[i][j]) {
						t.Fatalf("%s %T row %d: %v, want %v", agg.Kind, it, i, got.Tuples[i], want[i])
					}
				}
			}
		}
	}
}

// TestCoalesceNeverMutatesInput feeds COALESCE^M rows it must extend
// and checks that its input relation is unchanged afterwards: input
// tuples are immutable, so the operator copies a row before widening
// its period.
func TestCoalesceNeverMutatesInput(t *testing.T) {
	in := mkRel("Name,T1,T2",
		[]interface{}{"Jane", 3, 7},
		[]interface{}{"Jane", 7, 9},
		[]interface{}{"Tom", 1, 5},
		[]interface{}{"Tom", 4, 12},
		[]interface{}{"Tom", 20, 25},
	)
	before := in.Clone()
	got, err := rel.Drain(NewCoalesce(in.Iter(), 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualAsLists(in, before) {
		t.Fatalf("coalesce mutated its input:\n%v\nwas\n%v", in, before)
	}
	want := mkRel("Name,T1,T2",
		[]interface{}{"Jane", 3, 9},
		[]interface{}{"Tom", 1, 12},
		[]interface{}{"Tom", 20, 25},
	)
	if !rel.EqualAsLists(got, want) {
		t.Fatalf("coalesce:\n%v\nwant\n%v", got, want)
	}
}
