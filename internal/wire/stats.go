// Binary codec for catalog statistics crossing the wire (the MsgStats
// reply). Column min/max are dynamically typed values, so they ride the
// tuple codec; histograms are flat float64 bound arrays. Encoding is
// deterministic (columns sorted by key) so identical stats encode to
// identical bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"tango/internal/meta"
	"tango/internal/types"
)

// AppendTableStats appends the wire encoding of st to dst.
func AppendTableStats(dst []byte, st *meta.TableStats) []byte {
	dst = AppendString(dst, st.Table)
	dst = binary.AppendVarint(dst, st.Cardinality)
	dst = binary.AppendVarint(dst, st.Blocks)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.AvgTupleSize))
	keys := make([]string, 0, len(st.Columns))
	for k := range st.Columns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		c := st.Columns[k]
		dst = AppendString(dst, k)
		dst = AppendString(dst, c.Name)
		dst = types.EncodeTuple(dst, types.Tuple{c.Min, c.Max})
		dst = binary.AppendVarint(dst, c.Distinct)
		dst = binary.AppendVarint(dst, c.NullCount)
		var idx byte
		if c.HasIndex {
			idx = 1
		}
		dst = append(dst, idx)
		dst = binary.AppendVarint(dst, c.ClusteringFactor)
		if h := c.Histogram; h != nil {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(h.Bounds)))
			for _, b := range h.Bounds {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b))
			}
			dst = binary.AppendVarint(dst, h.Rows)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeTableStats decodes an AppendTableStats payload.
func DecodeTableStats(data []byte) (*meta.TableStats, error) {
	d := decoder{b: data}
	st := &meta.TableStats{Table: d.str("stats table")}
	st.Cardinality, st.Blocks = d.varint("cardinality"), d.varint("blocks")
	st.AvgTupleSize = math.Float64frombits(d.fixed64("tuple size"))
	ncols := d.uvarint("column count")
	st.Columns = map[string]*meta.ColumnStats{}
	for i := uint64(0); i < ncols && d.err == nil; i++ {
		key := d.str("column key")
		c := &meta.ColumnStats{Name: d.str("column name")}
		mm, used, err := types.DecodeTuple(d.b, nil)
		if err != nil {
			return nil, fmt.Errorf("%w: column %s min/max: %v", ErrBadFrame, key, err)
		}
		if len(mm) != 2 {
			return nil, fmt.Errorf("%w: column %s min/max arity %d", ErrBadFrame, key, len(mm))
		}
		c.Min, c.Max = mm[0], mm[1]
		d.b = d.b[used:]
		c.Distinct, c.NullCount = d.varint("distinct"), d.varint("nulls")
		c.HasIndex = d.byte("index flag") == 1
		c.ClusteringFactor = d.varint("clustering")
		if d.byte("histogram flag") == 1 {
			nb := d.uvarint("histogram bounds")
			if nb > uint64(len(d.b))/8 {
				d.fail("histogram bounds")
				break
			}
			h := &meta.Histogram{Bounds: make([]float64, nb)}
			for j := range h.Bounds {
				h.Bounds[j] = math.Float64frombits(d.fixed64("histogram bound"))
			}
			h.Rows = d.varint("histogram rows")
			c.Histogram = h
		}
		st.Columns[key] = c
	}
	if err := d.end("stats"); err != nil {
		return nil, err
	}
	return st, nil
}
