package core

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randWord(r *rand.Rand, maxBits int) Word {
	var w Word
	for i := range w {
		w[i] = r.Uint64()
	}
	// Mask down to maxBits.
	if maxBits < WordBits {
		keep := maxBits
		for i := range w {
			switch {
			case keep >= 64:
				keep -= 64
			case keep > 0:
				w[i] &= (uint64(1) << keep) - 1
				keep = 0
			default:
				w[i] = 0
			}
		}
	}
	return w
}

func TestWordFromU64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 255, 1 << 40, ^uint64(0)} {
		w := WordFromU64(v)
		if w.Low64() != v {
			t.Errorf("Low64 = %d, want %d", w.Low64(), v)
		}
		if got := w.Big().Uint64(); got != v {
			t.Errorf("Big = %d, want %d", got, v)
		}
	}
}

func TestWordBigRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		w := randWord(r, WordBits)
		back, err := WordFromBig(w.Big())
		if err != nil {
			t.Fatalf("WordFromBig: %v", err)
		}
		if back != w {
			t.Fatalf("round trip mismatch: %v != %v", back, w)
		}
	}
}

func TestWordFromBigRejectsNegative(t *testing.T) {
	if _, err := WordFromBig(big.NewInt(-1)); err == nil {
		t.Fatal("expected error for negative big.Int")
	}
}

func TestWordFromBigRejectsOverflow(t *testing.T) {
	b := new(big.Int).Lsh(big.NewInt(1), WordBits)
	if _, err := WordFromBig(b); err == nil {
		t.Fatal("expected error for 257-bit value")
	}
}

func TestWordAddMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		a, b := randWord(r, 255), randWord(r, 255)
		sum, carry := a.Add(b)
		if carry != 0 {
			t.Fatalf("unexpected carry for 255-bit operands")
		}
		want := new(big.Int).Add(a.Big(), b.Big())
		if sum.Big().Cmp(want) != 0 {
			t.Fatalf("%v + %v = %v, want %v", a, b, sum, want)
		}
	}
}

func TestWordAddCarryOut(t *testing.T) {
	var all1 Word
	for i := range all1 {
		all1[i] = ^uint64(0)
	}
	sum, carry := all1.Add(WordFromU64(1))
	if carry != 1 || !sum.IsZero() {
		t.Fatalf("max+1: got sum=%v carry=%d", sum, carry)
	}
}

func TestWordSubMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 500; i++ {
		a, b := randWord(r, 256), randWord(r, 256)
		if a.Cmp(b) < 0 {
			a, b = b, a
		}
		diff, borrow := a.Sub(b)
		if borrow != 0 {
			t.Fatalf("unexpected borrow when a >= b")
		}
		want := new(big.Int).Sub(a.Big(), b.Big())
		if diff.Big().Cmp(want) != 0 {
			t.Fatalf("%v - %v = %v, want %v", a, b, diff, want)
		}
	}
}

func TestWordSubBorrow(t *testing.T) {
	_, borrow := WordFromU64(1).Sub(WordFromU64(2))
	if borrow != 1 {
		t.Fatal("1-2 should borrow")
	}
}

func TestWordMulU64MatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 500; i++ {
		a := randWord(r, 190)
		m := r.Uint64() % (1 << 16)
		p, ok := a.MulU64(m)
		if !ok {
			t.Fatalf("190-bit * 16-bit should not overflow")
		}
		want := new(big.Int).Mul(a.Big(), new(big.Int).SetUint64(m))
		if p.Big().Cmp(want) != 0 {
			t.Fatalf("%v * %d = %v, want %v", a, m, p, want)
		}
	}
}

func TestWordMulU64Overflow(t *testing.T) {
	w := Pow2Word(255)
	if _, ok := w.MulU64(2); ok {
		t.Fatal("2^255 * 2 must report overflow")
	}
}

func TestWordDivModMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 500; i++ {
		a := randWord(r, 256)
		d := r.Uint64()
		if d == 0 {
			d = 1
		}
		q, rem := a.DivModU64(d)
		db := new(big.Int).SetUint64(d)
		wantQ, wantR := new(big.Int).DivMod(a.Big(), db, new(big.Int))
		if q.Big().Cmp(wantQ) != 0 || new(big.Int).SetUint64(rem).Cmp(wantR) != 0 {
			t.Fatalf("%v / %d: got (%v,%d) want (%v,%v)", a, d, q, rem, wantQ, wantR)
		}
		if got := a.ModU64(d); got != rem {
			t.Fatalf("ModU64 = %d disagrees with DivModU64 remainder %d", got, rem)
		}
	}
}

func TestWordDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on division by zero")
		}
	}()
	WordFromU64(1).DivModU64(0)
}

func TestWordShiftsMatchBig(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), WordBits), big.NewInt(1))
	for i := 0; i < 300; i++ {
		a := randWord(r, 256)
		n := uint(r.IntN(300))
		gotL := a.Lsh(n).Big()
		wantL := new(big.Int).And(new(big.Int).Lsh(a.Big(), n), mask)
		if gotL.Cmp(wantL) != 0 {
			t.Fatalf("%v << %d = %v, want %v", a, n, gotL, wantL)
		}
		gotR := a.Rsh(n).Big()
		wantR := new(big.Int).Rsh(a.Big(), n)
		if gotR.Cmp(wantR) != 0 {
			t.Fatalf("%v >> %d = %v, want %v", a, n, gotR, wantR)
		}
	}
}

func TestWordAddShiftedMatchesBig(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for i := 0; i < 500; i++ {
		var w Word
		want := new(big.Int)
		for j := 0; j < 20; j++ {
			v := r.Uint64() % (1 << 20)
			shift := uint(r.IntN(230))
			if !w.AddShifted(v, shift) {
				t.Fatalf("unexpected overflow")
			}
			want.Add(want, new(big.Int).Lsh(new(big.Int).SetUint64(v), shift))
		}
		if w.Big().Cmp(want) != 0 {
			t.Fatalf("AddShifted accumulation mismatch: %v vs %v", w, want)
		}
	}
}

func TestWordAddShiftedOverflow(t *testing.T) {
	var w Word
	if w.AddShifted(1, WordBits) {
		t.Fatal("shift beyond word width must fail")
	}
	w = Pow2Word(255)
	if w.AddShifted(1, 255) {
		t.Fatal("2^255 + 2^255 must overflow")
	}
}

func TestWordAddShiftedZeroValue(t *testing.T) {
	var w Word
	if !w.AddShifted(0, 1000) {
		t.Fatal("adding zero must succeed regardless of shift")
	}
	if !w.IsZero() {
		t.Fatal("word must remain zero")
	}
}

func TestWordExtractBits(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	one := big.NewInt(1)
	for i := 0; i < 300; i++ {
		a := randWord(r, 256)
		off := uint(r.IntN(256))
		width := uint(1 + r.IntN(64))
		got := a.ExtractBits(off, width)
		mask := new(big.Int).Sub(new(big.Int).Lsh(one, width), one)
		want := new(big.Int).And(new(big.Int).Rsh(a.Big(), off), mask).Uint64()
		if got != want {
			t.Fatalf("ExtractBits(%d,%d) = %d, want %d", off, width, got, want)
		}
	}
}

// extractBitsRef is the full-word-shift ExtractBits the limb-reading one
// replaced: shift the whole Word right, keep the low width bits.
func extractBitsRef(w Word, offset, width uint) uint64 {
	v := w.Rsh(offset)[0]
	if width < 64 {
		v &= (uint64(1) << width) - 1
	}
	return v
}

// TestWordExtractBitsExhaustive pins the limb-reading ExtractBits to the
// Rsh reference at every offset in [0, WordBits+8) and every width 1..64,
// so limb-straddling fields, fields running off the top limb and offsets
// past the Word (which must read 0) are all covered.
func TestWordExtractBitsExhaustive(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 24))
	words := []Word{{}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
	for i := 0; i < 6; i++ {
		words = append(words, randWord(r, 256))
	}
	for _, w := range words {
		for off := uint(0); off < WordBits+8; off++ {
			for width := uint(1); width <= 64; width++ {
				got, want := w.ExtractBits(off, width), extractBitsRef(w, off, width)
				if got != want {
					t.Fatalf("%v.ExtractBits(%d,%d) = %#x, want %#x", w, off, width, got, want)
				}
				if off >= WordBits && got != 0 {
					t.Fatalf("ExtractBits(%d,%d) past the Word = %#x, want 0", off, width, got)
				}
			}
		}
	}
}

func TestWordExtractBitsWidthZero(t *testing.T) {
	if got := WordFromU64(255).ExtractBits(0, 0); got != 0 {
		t.Fatalf("width 0 must return 0, got %d", got)
	}
}

func TestWordBitLen(t *testing.T) {
	if got := (Word{}).BitLen(); got != 0 {
		t.Fatalf("zero BitLen = %d", got)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 200, 255} {
		if got := Pow2Word(n).BitLen(); got != n+1 {
			t.Fatalf("Pow2Word(%d).BitLen = %d, want %d", n, got, n+1)
		}
	}
}

func TestWordBit(t *testing.T) {
	w := Pow2Word(70)
	if w.Bit(70) != 1 || w.Bit(69) != 0 || w.Bit(-1) != 0 || w.Bit(300) != 0 {
		t.Fatal("Bit indexing incorrect")
	}
}

func TestWordCmp(t *testing.T) {
	a, b := WordFromU64(5), Pow2Word(128)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp ordering incorrect")
	}
}

func TestWordStringDecimal(t *testing.T) {
	if got := WordFromU64(12345).String(); got != "12345" {
		t.Fatalf("String = %q", got)
	}
	if got := Pow2Word(64).String(); got != "18446744073709551616" {
		t.Fatalf("2^64 String = %q", got)
	}
}

func TestPow2WordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pow2Word(WordBits)
}

// Property: (a+b)-b == a whenever a+b does not overflow.
func TestWordAddSubInverseProperty(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		a := Word{a0, a1}
		b := Word{b0, b1}
		sum, carry := a.Add(b)
		if carry != 0 {
			return true
		}
		diff, borrow := sum.Sub(b)
		return borrow == 0 && diff == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DivModU64 reconstructs its input: q*d + r == x, r < d.
func TestWordDivModReconstructionProperty(t *testing.T) {
	f := func(x0, x1, x2 uint64, d uint64) bool {
		if d == 0 {
			d = 7
		}
		x := Word{x0, x1, x2}
		q, r := x.DivModU64(d)
		if r >= d {
			return false
		}
		back, ok := q.MulU64(d)
		if !ok {
			return false
		}
		back2, carry := back.Add(WordFromU64(r))
		return carry == 0 && back2 == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
