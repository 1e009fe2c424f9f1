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

// DecodeTuple decodes one tuple from buf, returning the tuple and the
// number of bytes consumed. It is a SlabDecoder over a single tuple.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	var d SlabDecoder
	d.Reset(buf)
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
// scanned tuple holds a string. A decoded tuple therefore pins its
// slab and that string but never the source buffer, which the caller
// may overwrite once the last Decode returns.
//
// Every value costs at least one encoded byte, so the slab is bounded
// by the source length whatever counts the encoding claims.
type SlabDecoder struct {
	src    []byte
	lo, hi int  // span of src covered by scanned tuples
	vals   int  // values counted by Scan
	hasStr bool // a scanned tuple holds a string

	slab []Value // unfilled rest of the slab; nil until the first Decode
	str  string  // src[lo:hi], when hasStr
}

// Reset starts a new slab over src.
func (d *SlabDecoder) Reset(src []byte) {
	*d = SlabDecoder{src: src, lo: len(src)}
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
	for i := uint64(0); i < n; i++ {
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
			d.hasStr = true
		default:
			return 0, fmt.Errorf("types: unknown kind %d", kind)
		}
	}
	d.vals += int(n)
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
	if n == 0 {
		return Tuple{}, pos
	}
	t := Tuple(d.slab[:n:n])
	d.slab = d.slab[n:]
	for i := range t {
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindInt, KindDate, KindBool:
			v, k := binary.Varint(buf[pos:])
			pos += k
			t[i] = Value{kind: kind, n: v}
		case KindFloat:
			t[i] = Value{kind: KindFloat, n: int64(binary.LittleEndian.Uint64(buf[pos:]))}
			pos += 8
		case KindString:
			l, k := binary.Uvarint(buf[pos:])
			pos += k
			at := off + pos - d.lo
			t[i] = Value{kind: KindString, s: d.str[at : at+int(l)]}
			pos += int(l)
		}
	}
	return t, pos
}

// EncodedSize returns the number of bytes EncodeTuple would produce.
func EncodedSize(t Tuple) int {
	return len(EncodeTuple(nil, t))
}
