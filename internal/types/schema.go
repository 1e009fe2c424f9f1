package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Column describes one attribute of a relation schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Column names are matched
// case-insensitively, and may be qualified ("A.PosID"); an unqualified
// lookup matches the unqualified part.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Cols) }

// ColumnIndex finds the index of the named column, or -1. A qualified
// name must match exactly (case-insensitive); an unqualified name
// matches the first column whose unqualified part equals it.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	if !strings.Contains(name, ".") {
		for i, c := range s.Cols {
			if dot := strings.LastIndexByte(c.Name, '.'); dot >= 0 &&
				strings.EqualFold(c.Name[dot+1:], name) {
				return i
			}
		}
	}
	return -1
}

// MustIndex is ColumnIndex but panics if the column is missing; for
// internal plan construction where schemas were already validated.
func (s Schema) MustIndex(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("types: no column %q in schema %v", name, s.Names()))
	}
	return i
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	return names
}

// Project returns the schema restricted to the given column indexes.
func (s Schema) Project(idx []int) Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Cols[j]
	}
	return Schema{Cols: cols}
}

// Concat returns the concatenation of two schemas (join output). Column
// names from the right side that collide with the left are kept as-is;
// callers qualify names to disambiguate.
func (s Schema) Concat(t Schema) Schema {
	cols := make([]Column, 0, len(s.Cols)+len(t.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, t.Cols...)
	return Schema{Cols: cols}
}

// Qualify returns a copy of the schema with every unqualified column
// name prefixed by alias.
func (s Schema) Qualify(alias string) Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		cols[i] = Column{Name: alias + "." + name, Kind: c.Kind}
	}
	return Schema{Cols: cols}
}

// Unqualified returns a copy of the schema with qualifiers stripped.
func (s Schema) Unqualified() Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		cols[i] = Column{Name: name, Kind: c.Kind}
	}
	return Schema{Cols: cols}
}

// String renders the schema as "(name TYPE, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have the same column names
// (case-insensitive) and kinds in the same order.
func (s Schema) Equal(t Schema) bool {
	if len(s.Cols) != len(t.Cols) {
		return false
	}
	for i := range s.Cols {
		if !strings.EqualFold(s.Cols[i].Name, t.Cols[i].Name) || s.Cols[i].Kind != t.Cols[i].Kind {
			return false
		}
	}
	return true
}

// Tuple is one row of a relation.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// RowAlloc hands out tuples carved from shared slabs, so an operator
// building its output rows pays one allocation per slab instead of one
// per row. Slabs start at 8 rows and double up to 256, so a short
// result wastes little. A kept row pins its slab. The zero RowAlloc
// is ready to use; it is not safe for concurrent use.
type RowAlloc struct {
	rows int // rows per slab, the last time one was made
	slab []Value
}

// Row returns a zeroed tuple of width values whose capacity is its
// length, so appending to it never writes into another row.
func (a *RowAlloc) Row(width int) Tuple {
	if len(a.slab) < width {
		a.rows = min(max(2*a.rows, 8), 256)
		a.slab = make([]Value, a.rows*width)
	}
	t := a.slab[:width:width]
	a.slab = a.slab[width:]
	return t
}

// ByteSize returns the approximate size of the tuple in bytes.
func (t Tuple) ByteSize() int {
	n := 0
	for _, v := range t {
		n += v.ByteSize()
	}
	return n
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CompareTuples orders tuples by the given key column indexes; missing
// keys (index out of range) compare equal. desc[i], when provided,
// reverses key i.
func CompareTuples(a, b Tuple, keys []int, desc []bool) int {
	for i, k := range keys {
		if k >= len(a) || k >= len(b) {
			continue
		}
		c := Compare(a[k], b[k])
		if c != 0 {
			if i < len(desc) && desc[i] {
				return -c
			}
			return c
		}
	}
	return 0
}

// CompareKeys orders tuple a on columns ak against tuple b on columns
// bk, pairwise and ascending, without building key tuples.
func CompareKeys(a Tuple, ak []int, b Tuple, bk []int) int {
	for i, k := range ak {
		if c := Compare(a[k], b[bk[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// StableOrder returns the permutation that lists the indexes 0..n-1
// in the order cmp (comparing items by index) sorts them; items that
// compare equal keep their input order. prefix, when not nil, holds
// one order-preserving key per item (SortPrefixes), and cmp runs only
// between items whose prefixes are equal; a nil cmp means equal
// prefixes are equal items (an exact prefix). It is the one stable
// sort of the engine and the middleware operators. It works on
// (prefix, int32 position) pairs, moving 16-byte keys instead of rows:
// a stable radix sort orders them on the prefix, then a
// pattern-defeating quicksort orders each run of equal prefixes on cmp
// with a position tiebreak. With no prefix the whole input is one run.
func StableOrder(n int, prefix []uint64, cmp func(i, j int) int) []int32 {
	ks := make([]keyed, n)
	for i := range ks {
		ks[i].pos = int32(i)
	}
	if prefix != nil {
		for i := range ks {
			ks[i].key = prefix[i]
		}
		ks = radixSort(ks)
	}
	byCmp := func(a, b keyed) int {
		if c := cmp(int(a.pos), int(b.pos)); c != 0 {
			return c
		}
		return int(a.pos - b.pos)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ks[hi].key == ks[lo].key {
			hi++
		}
		if hi-lo > 1 && cmp != nil {
			slices.SortFunc(ks[lo:hi], byCmp)
		}
		lo = hi
	}
	perm := make([]int32, n)
	for i, k := range ks {
		perm[i] = k.pos
	}
	return perm
}

// keyed is one item of StableOrder: its prefix and input position.
type keyed struct {
	key uint64
	pos int32
}

// radixSort orders ks on key, stably, one byte per pass from the
// least significant; a pass whose byte all keys share is skipped.
func radixSort(ks []keyed) []keyed {
	if len(ks) < 2 {
		return ks
	}
	buf := make([]keyed, len(ks))
	for shift := 0; shift < 64; shift += 8 {
		var at [256]int
		for _, k := range ks {
			at[byte(k.key>>shift)]++
		}
		if at[byte(ks[0].key>>shift)] == len(ks) {
			continue
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for _, k := range ks {
			b := byte(k.key >> shift)
			buf[at[b]] = k
			at[b]++
		}
		ks, buf = buf, ks
	}
	return ks
}

// SortPrefixes encodes every stride-th value of vals (vals[0],
// vals[stride], ...) as a uint64 whose unsigned order agrees with
// Compare: a smaller prefix means a smaller value, and equal prefixes
// leave the order to the full comparison. Integers, dates and booleans
// flip their sign bit, floats take the IEEE-754 order flip (-0 as 0),
// and strings their first 8 bytes, big-endian and zero-padded; NULL is
// 0, the lowest. desc complements every prefix. exact reports that
// equal prefixes mean equal values: the key holds no string, and no
// non-NULL value shares NULL's prefix 0. It returns nil, no prefix,
// when the non-NULL values mix kinds that Compare orders across
// (integers with floats, numbers with strings) or hold a NaN, which
// Compare does not order.
func SortPrefixes(vals []Value, stride int, desc bool) (prefix []uint64, exact bool) {
	out := make([]uint64, 0, (len(vals)+stride-1)/stride)
	class := KindNull // KindInt stands for int, date and bool
	zero := false     // a non-NULL value has prefix 0, as NULL does
	for i := 0; i < len(vals); i += stride {
		v := vals[i]
		c := v.kind
		if c == KindDate || c == KindBool {
			c = KindInt
		}
		if c != KindNull {
			if class == KindNull {
				class = c
			} else if class != c {
				return nil, false
			}
		}
		var p uint64
		switch c {
		case KindInt:
			p = uint64(v.n) ^ 1<<63
		case KindFloat:
			f := math.Float64frombits(uint64(v.n))
			if f != f {
				return nil, false
			}
			if f == 0 {
				f = 0
			}
			p = math.Float64bits(f)
			if p>>63 == 1 {
				p = ^p
			} else {
				p |= 1 << 63
			}
		case KindString:
			var b [8]byte
			copy(b[:], v.s)
			p = binary.BigEndian.Uint64(b[:])
		}
		zero = zero || (c != KindNull && p == 0)
		if desc {
			p = ^p
		}
		out = append(out, p)
	}
	return out, class != KindString && !zero
}

// SortTuples sorts ts in place by the key columns (desc[i], when
// provided, reverses key i), stably.
func SortTuples(ts []Tuple, keys []int, desc []bool) {
	perm := StableOrder(len(ts), nil, func(i, j int) int {
		return CompareTuples(ts[i], ts[j], keys, desc)
	})
	sorted := make([]Tuple, len(ts))
	for i, p := range perm {
		sorted[i] = ts[p]
	}
	copy(ts, sorted)
}

// TupleEqualOn reports whether two tuples agree on the given columns.
func TupleEqualOn(a, b Tuple, keys []int) bool {
	for _, k := range keys {
		if !Equal(a[k], b[k]) {
			return false
		}
	}
	return true
}
