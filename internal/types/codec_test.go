package types

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func tuplesRoundTrip(t Tuple) bool {
	enc := EncodeTuple(nil, t)
	got, n, err := DecodeTuple(enc, nil)
	if err != nil || n != len(enc) || len(got) != len(t) {
		return false
	}
	for i := range t {
		if got[i].Kind() != t[i].Kind() || !Equal(got[i], t[i]) {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		{Null},
		{Int(0), Int(-1), Int(1 << 40)},
		{Float(3.14159), Float(-0.0)},
		{Str(""), Str("hello"), Str("O'Hara\n\x00")},
		{Bool(true), Bool(false)},
		{Date(9862), Null, Str("x"), Int(7)},
	}
	for i, c := range cases {
		if !tuplesRoundTrip(c) {
			t.Errorf("case %d (%v) failed round trip", i, c)
		}
	}
}

func TestCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func() Tuple {
		n := rng.Intn(6)
		tp := make(Tuple, n)
		for i := range tp {
			switch rng.Intn(6) {
			case 0:
				tp[i] = Null
			case 1:
				tp[i] = Int(rng.Int63() - rng.Int63())
			case 2:
				tp[i] = Float(rng.NormFloat64())
			case 3:
				b := make([]byte, rng.Intn(30))
				rng.Read(b)
				tp[i] = Str(string(b))
			case 4:
				tp[i] = Bool(rng.Intn(2) == 0)
			default:
				tp[i] = Date(rng.Int63n(30000))
			}
		}
		return tp
	}
	f := func() bool { return tuplesRoundTrip(gen()) }
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCodecStream(t *testing.T) {
	// Multiple tuples back-to-back decode at correct offsets.
	a := Tuple{Int(1), Str("x")}
	b := Tuple{Float(2.5)}
	buf := EncodeTuple(nil, a)
	buf = EncodeTuple(buf, b)
	got1, n1, err := DecodeTuple(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := DecodeTuple(buf[n1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) || !Equal(got1[0], Int(1)) || !Equal(got2[0], Float(2.5)) {
		t.Error("stream decode mismatch")
	}
}

func TestCodecCorruption(t *testing.T) {
	enc := EncodeTuple(nil, Tuple{Str("hello world"), Int(42)})
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeTuple(enc[:cut], nil); err == nil {
			// A truncation that still parses must consume <= cut bytes —
			// acceptable only if it decodes a full prefix; kind tags make
			// most cuts fail. Just ensure no panic happened.
			continue
		}
	}
	bad := bytes.Clone(enc)
	bad[1] = 250 // invalid kind tag
	if _, _, err := DecodeTuple(bad, nil); err == nil {
		t.Error("invalid kind should error")
	}
}

func TestEncodedSize(t *testing.T) {
	tp := Tuple{Int(5), Str("abc")}
	if EncodedSize(tp) != len(EncodeTuple(nil, tp)) {
		t.Error("EncodedSize mismatch")
	}
}

// TestSlabDecoderRows decodes consecutive tuples into one slab and
// checks that the rows stay independent of each other and of the
// source buffer: appending to a row never writes into the next one,
// and strings survive the source being overwritten.
func TestSlabDecoderRows(t *testing.T) {
	rows := []Tuple{
		{Int(1), Str("alpha"), Float(2.5)},
		{},
		{Null, Str(""), Str("omega"), Date(9862)},
	}
	var src []byte
	for _, r := range rows {
		src = EncodeTuple(src, r)
	}
	var d SlabDecoder
	d.Reset(src, nil)
	var offs []int
	for off := 0; off < len(src); {
		n, err := d.Scan(off)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
		off += n
	}
	var got []Tuple
	for _, off := range offs {
		tu, _ := d.Decode(off)
		got = append(got, tu)
	}
	for i := range src {
		src[i] = 0xff
	}
	_ = append(got[0], Int(99))
	for i, r := range rows {
		if len(got[i]) != len(r) || cap(got[i]) != len(r) {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(got[i]), cap(got[i]), len(r))
		}
		for j := range r {
			if got[i][j].Kind() != r[j].Kind() || !Equal(got[i][j], r[j]) {
				t.Errorf("row %d col %d = %v, want %v", i, j, got[i][j], r[j])
			}
		}
	}
	if _, err := d.Scan(len(src) - 1); err == nil {
		t.Error("Scan accepted garbage")
	}
}

func TestSlabDecoderKeepsColumns(t *testing.T) {
	rows := []Tuple{
		{Int(1), Str("alpha"), Float(2.5), Date(7)},
		{Int(2), Str("beta"), Null},
	}
	var src []byte
	for _, r := range rows {
		src = EncodeTuple(src, r)
	}
	decode := func(keep []int) (SlabDecoder, []Tuple) {
		var d SlabDecoder
		d.Reset(src, keep)
		var offs []int
		for off := 0; off < len(src); {
			n, err := d.Scan(off)
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
			off += n
		}
		var got []Tuple
		for _, off := range offs {
			tu, _ := d.Decode(off)
			got = append(got, tu)
		}
		return d, got
	}
	d, got := decode([]int{0, 3})
	if d.hasStr || d.str != "" {
		t.Error("no kept column is a string, yet the record area was copied")
	}
	want := []Tuple{{Int(1), Date(7)}, {Int(2), Null}}
	for i := range want {
		if len(got[i]) != 2 || cap(got[i]) != 2 || !Equal(got[i][0], want[i][0]) ||
			got[i][1].Kind() != want[i][1].Kind() || !Equal(got[i][1], want[i][1]) {
			t.Errorf("keep {0,3} row %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, got = decode([]int{1}); got[0][0].AsString() != "alpha" || got[1][0].AsString() != "beta" {
		t.Errorf("keep {1} = %v", got)
	}
	if _, got = decode([]int{}); len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
		t.Errorf("keep {} = %v, want two empty tuples", got)
	}
	// Every value is still validated: a corrupt dropped column fails.
	bad := EncodeTuple(nil, Tuple{Int(1), Str("x")})
	bad[len(bad)-2] = 9 // the string's length now overruns the buffer
	if _, _, err := DecodeTuple(bad, []int{0}); err == nil {
		t.Error("a corrupt unkept value was accepted")
	}
}
