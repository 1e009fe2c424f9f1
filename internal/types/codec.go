package types

import (
	"encoding/binary"
	"fmt"
)

// EncodeTuple appends a compact binary encoding of the tuple to dst and
// returns the extended slice. The encoding is self-describing (kind
// tags) and is shared by the storage pages and the client/server wire,
// so that shipping a row across the middleware/DBMS boundary costs real
// serialization work, as it does over JDBC.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt, KindDate, KindBool:
			dst = binary.AppendVarint(dst, v.n)
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.n))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// DecodeTuple decodes one tuple from buf, keeping only the values at
// the ascending positions keep (nil keeps all; see SlabDecoder.Reset),
// and returns it with the number of bytes consumed. It is a
// SlabDecoder over a single tuple.
func DecodeTuple(buf []byte, keep []int) (Tuple, int, error) {
	var d SlabDecoder
	d.Reset(buf, keep)
	if _, err := d.Scan(0); err != nil {
		return nil, 0, err
	}
	t, n := d.Decode(0)
	return t, n, nil
}

// SlabDecoder decodes tuples that lie in one source buffer (a heap
// page, a wire batch, a chunk of a sort run) into tuples sharing one
// exactly sized []Value slab. It works in two passes: Scan validates
// each tuple and counts its values, then Decode fills the slab, which
// the first Decode allocates. String values are substrings of one
// string copied from the scanned span of the source, made only when a
// scanned tuple holds a kept string. A decoded tuple therefore pins its
// slab and that string but never the source buffer, which the caller
// may overwrite once the last Decode returns.
//
// A decoder may keep only some columns (Reset's keep list): Scan still
// validates every value, but the slab holds, and Decode returns, just
// the kept ones, so a scan that needs few columns of a wide row neither
// stores nor copies the rest.
//
// Every value costs at least one encoded byte, so the slab is bounded
// by the source length whatever counts the encoding claims.
type SlabDecoder struct {
	src    []byte
	keep   []int // ascending value positions to keep; nil keeps all
	lo, hi int   // span of src covered by scanned tuples
	vals   int   // values counted by Scan
	hasStr bool  // a scanned tuple holds a kept string

	slab []Value // unfilled rest of the slab; nil until the first Decode
	str  string  // src[lo:hi], when hasStr
}

// Reset starts a new slab over src. keep, when not nil, lists the
// ascending value positions each decoded tuple keeps, in that order;
// a position past a tuple's end decodes as NULL. An empty, non-nil
// keep decodes every tuple to an empty one (COUNT(*)).
func (d *SlabDecoder) Reset(src []byte, keep []int) {
	*d = SlabDecoder{src: src, keep: keep, lo: len(src)}
}

// slot reports whether value position i is kept, and at which position
// of the decoded tuple, under a keep list; *k is the caller's cursor
// into keep, advanced past the positions before i.
func (d *SlabDecoder) slot(i int, k *int) (int, bool) {
	for *k < len(d.keep) && d.keep[*k] < i {
		*k++
	}
	return *k, *k < len(d.keep) && d.keep[*k] == i
}

// Scan validates the tuple encoded at src[off:] and returns its
// encoded length.
func (d *SlabDecoder) Scan(off int) (int, error) {
	buf := d.src[off:]
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, fmt.Errorf("types: bad tuple header")
	}
	if n > uint64(len(buf)-pos) {
		return 0, fmt.Errorf("types: truncated tuple")
	}
	cur := 0 // cursor into keep
	for i := 0; i < int(n); i++ {
		if pos >= len(buf) {
			return 0, fmt.Errorf("types: truncated tuple")
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
		case KindInt, KindDate, KindBool:
			_, k := binary.Varint(buf[pos:])
			if k <= 0 {
				return 0, fmt.Errorf("types: truncated varint")
			}
			pos += k
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, fmt.Errorf("types: truncated float")
			}
			pos += 8
		case KindString:
			l, k := binary.Uvarint(buf[pos:])
			if k <= 0 || l > uint64(len(buf)-pos-k) {
				return 0, fmt.Errorf("types: truncated string")
			}
			pos += k + int(l)
			if d.keep == nil {
				d.hasStr = true
			} else if _, ok := d.slot(i, &cur); ok {
				d.hasStr = true
			}
		default:
			return 0, fmt.Errorf("types: unknown kind %d", kind)
		}
	}
	if d.keep != nil {
		d.vals += len(d.keep)
	} else {
		d.vals += int(n)
	}
	d.lo = min(d.lo, off)
	d.hi = max(d.hi, off+pos)
	return pos, nil
}

// Decode decodes the tuple at src[off:], which Scan accepted since the
// last Reset, and returns it with its encoded length. The tuple's
// capacity is its length, so appending to it never writes into the
// next tuple's values.
func (d *SlabDecoder) Decode(off int) (Tuple, int) {
	if d.slab == nil {
		d.slab = make([]Value, d.vals)
		if d.hasStr {
			d.str = string(d.src[d.lo:d.hi])
		}
	}
	buf := d.src[off:]
	un, pos := binary.Uvarint(buf)
	n := int(un)
	w := n
	if d.keep != nil {
		w = len(d.keep)
	}
	t := Tuple(d.slab[:w:w])
	d.slab = d.slab[w:]
	cur := 0 // cursor into keep
	for i := 0; i < n; i++ {
		kind := Kind(buf[pos])
		pos++
		j, store := i, true
		if d.keep != nil {
			j, store = d.slot(i, &cur)
		}
		switch kind {
		case KindInt, KindDate, KindBool:
			v, k := binary.Varint(buf[pos:])
			pos += k
			if store {
				t[j] = Value{kind: kind, n: v}
			}
		case KindFloat:
			if store {
				t[j] = Value{kind: KindFloat, n: int64(binary.LittleEndian.Uint64(buf[pos:]))}
			}
			pos += 8
		case KindString:
			l, k := binary.Uvarint(buf[pos:])
			pos += k
			if store {
				at := off + pos - d.lo
				t[j] = Value{kind: KindString, s: d.str[at : at+int(l)]}
			}
			pos += int(l)
		}
	}
	return t, pos
}

// EncodedSize returns the number of bytes EncodeTuple would produce.
func EncodedSize(t Tuple) int {
	return len(EncodeTuple(nil, t))
}
