package engine

import (
	"math/rand"
	"sort"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// TestOrderByStableUnderTies checks ORDER BY on many-tie keys against
// the sort.SliceStable oracle applied to the table's storage order:
// rows with equal keys must keep their input order.
func TestOrderByStableUnderTies(t *testing.T) {
	db := Open(Config{})
	schema := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "D", Kind: types.KindString},
		types.Column{Name: "Seq", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("TIES", schema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	rows := make([]types.Tuple, 4000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(rng.Int63n(4)), types.Str(string(rune('a' + rng.Intn(3)))), types.Int(int64(i))}
	}
	if err := db.BulkLoad("TIES", rows); err != nil {
		t.Fatal(err)
	}
	scan := queryAll(t, db, "SELECT * FROM TIES")
	for _, c := range []struct {
		sql   string
		keys  []int
		descs []bool
	}{
		{"SELECT * FROM TIES ORDER BY K", []int{0}, nil},
		{"SELECT * FROM TIES ORDER BY D DESC, K", []int{1, 0}, []bool{true, false}},
	} {
		want := &rel.Relation{Schema: scan.Schema, Tuples: append([]types.Tuple(nil), scan.Tuples...)}
		sort.SliceStable(want.Tuples, func(i, j int) bool {
			return types.CompareTuples(want.Tuples[i], want.Tuples[j], c.keys, c.descs) < 0
		})
		if got := queryAll(t, db, c.sql); !rel.EqualAsLists(got, want) {
			t.Errorf("%s: order differs from the stable oracle", c.sql)
		}
	}
}
