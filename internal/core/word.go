// Package core implements the paper's primary contribution: AN arithmetic
// error-correcting codes and data-aware ABN codes for in-situ analog
// matrix-vector multiplication (Feinberg, Wang, Ipek; HPCA 2018).
//
// An AN code encodes an integer x as A*x. Because multiplication distributes
// over addition (A*x + A*y = A*(x+y)), a dot product computed over encoded
// operands yields an encoded result, and any additive error E leaves a
// nonzero residue (A*x + E) mod A = E mod A that indexes a correction table.
// ABN codes multiply by A*B, using A for correction and a small B (3 in the
// paper and here) as a post-correction detection check, analogous to the
// parity bit that turns a Hamming code into SECDED.
//
// The data-aware construction (paper Section V-B) allocates the scarce
// correction-table entries to the error patterns that are simultaneously most
// probable — derived from the state-dependent random-telegraph-noise
// susceptibility of each physical crossbar row — and most damaging, weighted
// by the arithmetic significance of the most significant bit they disturb.
package core

import (
	"fmt"
	"math/big"
	"math/bits"
)

// WordBits is the fixed width of a Word in bits. It comfortably holds the
// widest values in the system: an encoded 8-operand group (~200 bits) summed
// across a 128-column crossbar.
const WordBits = 256

// wordLimbs is the number of 64-bit limbs in a Word.
const wordLimbs = WordBits / 64

// Word is a fixed-width 256-bit unsigned integer with little-endian limbs.
// It replaces math/big in the Monte-Carlo hot path, where millions of
// encode/accumulate/correct operations run per simulated image.
type Word [wordLimbs]uint64

// WordFromU64 returns a Word holding x.
func WordFromU64(x uint64) Word { return Word{x} }

// WordFromBig converts a non-negative big.Int to a Word.
// It returns an error if b is negative or exceeds 256 bits.
func WordFromBig(b *big.Int) (Word, error) {
	var w Word
	if b.Sign() < 0 {
		return w, fmt.Errorf("core: negative value %s cannot be a Word", b)
	}
	if b.BitLen() > WordBits {
		return w, fmt.Errorf("core: value of %d bits exceeds Word width", b.BitLen())
	}
	for i, limb := range b.Bits() {
		w[i] = uint64(limb)
	}
	return w, nil
}

// Big returns the Word as a big.Int (for tests and display paths only).
func (w Word) Big() *big.Int {
	b := new(big.Int)
	for i := wordLimbs - 1; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(w[i]))
	}
	return b
}

// String renders the Word in decimal.
func (w Word) String() string { return w.Big().String() }

// IsZero reports whether the Word is zero.
func (w Word) IsZero() bool { return w == Word{} }

// Low64 returns the least significant 64 bits.
func (w Word) Low64() uint64 { return w[0] }

// BitLen returns the minimum number of bits needed to represent the Word.
func (w Word) BitLen() int {
	for i := wordLimbs - 1; i >= 0; i-- {
		if w[i] != 0 {
			return 64*i + bits.Len64(w[i])
		}
	}
	return 0
}

// Bit returns bit i (0 = least significant) as 0 or 1.
func (w Word) Bit(i int) uint {
	if i < 0 || i >= WordBits {
		return 0
	}
	return uint(w[i/64]>>(uint(i)%64)) & 1
}

// Cmp compares two Words, returning -1, 0, or +1.
func (w Word) Cmp(o Word) int {
	for i := wordLimbs - 1; i >= 0; i-- {
		switch {
		case w[i] < o[i]:
			return -1
		case w[i] > o[i]:
			return 1
		}
	}
	return 0
}

// Add returns w+o and the outgoing carry (0 or 1).
func (w Word) Add(o Word) (Word, uint64) {
	var r Word
	var c uint64
	for i := 0; i < wordLimbs; i++ {
		r[i], c = bits.Add64(w[i], o[i], c)
	}
	return r, c
}

// Sub returns w-o and the outgoing borrow (0 or 1). A borrow of 1 means the
// subtraction underflowed.
func (w Word) Sub(o Word) (Word, uint64) {
	var r Word
	var b uint64
	for i := 0; i < wordLimbs; i++ {
		r[i], b = bits.Sub64(w[i], o[i], b)
	}
	return r, b
}

// AddShifted adds v << shift into the Word in place, returning false on
// overflow. This is the crossbar reduction-tree primitive: it folds one ADC
// row sample into the running shift-and-add sum.
func (w *Word) AddShifted(v uint64, shift uint) bool {
	if v == 0 {
		return true
	}
	if shift >= WordBits {
		return false
	}
	limb := int(shift / 64)
	off := shift % 64
	lo := v << off
	hi := uint64(0)
	if off != 0 {
		hi = v >> (64 - off)
	}
	var c uint64
	w[limb], c = bits.Add64(w[limb], lo, 0)
	if limb+1 < wordLimbs {
		w[limb+1], c = bits.Add64(w[limb+1], hi, c)
	} else if hi != 0 || c != 0 {
		return false
	}
	for i := limb + 2; i < wordLimbs && c != 0; i++ {
		w[i], c = bits.Add64(w[i], 0, c)
	}
	return c == 0
}

// MulU64 returns w*m and reports whether the product fit in 256 bits.
func (w Word) MulU64(m uint64) (Word, bool) {
	var r Word
	var carry uint64
	for i := 0; i < wordLimbs; i++ {
		hi, lo := bits.Mul64(w[i], m)
		var c uint64
		r[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c // cannot overflow: hi <= 2^64-2 when c=1
	}
	return r, carry == 0
}

// DivModU64 returns the quotient w/d and remainder w%d. d must be nonzero.
func (w Word) DivModU64(d uint64) (Word, uint64) {
	if d == 0 {
		panic("core: division by zero")
	}
	var q Word
	var rem uint64
	for i := wordLimbs - 1; i >= 0; i-- {
		q[i], rem = bits.Div64(rem, w[i], d)
	}
	return q, rem
}

// ModU64 returns w mod d. d must be nonzero.
func (w Word) ModU64(d uint64) uint64 {
	if d == 0 {
		panic("core: division by zero")
	}
	var rem uint64
	for i := wordLimbs - 1; i >= 0; i-- {
		_, rem = bits.Div64(rem, w[i], d)
	}
	return rem
}

// Lsh returns w << n.
func (w Word) Lsh(n uint) Word {
	if n >= WordBits {
		return Word{}
	}
	limb := int(n / 64)
	off := n % 64
	var r Word
	for i := wordLimbs - 1; i >= limb; i-- {
		r[i] = w[i-limb] << off
		if off != 0 && i-limb-1 >= 0 {
			r[i] |= w[i-limb-1] >> (64 - off)
		}
	}
	return r
}

// Rsh returns w >> n.
func (w Word) Rsh(n uint) Word {
	if n >= WordBits {
		return Word{}
	}
	limb := int(n / 64)
	off := n % 64
	var r Word
	for i := 0; i+limb < wordLimbs; i++ {
		r[i] = w[i+limb] >> off
		if off != 0 && i+limb+1 < wordLimbs {
			r[i] |= w[i+limb+1] << (64 - off)
		}
	}
	return r
}

// ExtractBits returns the width-bit field starting at bit offset as a uint64.
// width must be at most 64. It reads only the one or two limbs the field
// spans, so bit slicing and lane unpacking cost O(1) per field; the result
// equals the low width bits of w.Rsh(offset).
func (w Word) ExtractBits(offset, width uint) uint64 {
	if width == 0 {
		return 0
	}
	if width > 64 {
		panic("core: ExtractBits width exceeds 64")
	}
	if offset >= WordBits {
		return 0
	}
	limb, off := offset/64, offset%64
	v := w[limb] >> off
	if off != 0 && limb+1 < wordLimbs {
		v |= w[limb+1] << (64 - off)
	}
	if width < 64 {
		v &= (uint64(1) << width) - 1
	}
	return v
}

// Pow2Word returns 2^n as a Word; n must be below WordBits.
func Pow2Word(n int) Word {
	if n < 0 || n >= WordBits {
		panic(fmt.Sprintf("core: Pow2Word exponent %d out of range", n))
	}
	var w Word
	w[n/64] = 1 << (uint(n) % 64)
	return w
}
