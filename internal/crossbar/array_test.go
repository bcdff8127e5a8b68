package crossbar

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestNewArrayPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewArray(0, 10, 2) },
		func() { NewArray(10, 0, 2) },
		func() { NewArray(10, 10, 0) },
		func() { NewArray(10, 10, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSetAndLevel(t *testing.T) {
	a := NewArray(4, 70, 2)
	a.Set(1, 65, 3)
	if a.Level(1, 65) != 3 {
		t.Fatal("level not stored")
	}
	a.Set(1, 65, 1) // reprogram must clear the old mask bit
	if a.Level(1, 65) != 1 {
		t.Fatal("reprogram failed")
	}
	counts := make([]int, 4)
	full := []uint64{^uint64(0), ^uint64(0)}
	a.ActiveCounts(1, full, counts)
	if counts[3] != 0 || counts[1] != 1 {
		t.Fatalf("mask not maintained on reprogram: %v", counts)
	}
	if h := a.Histogram(1); h[0] != 69 || h[1] != 1 {
		t.Fatalf("histogram wrong: %v", h)
	}
}

func TestSetPanicsOnBadLevel(t *testing.T) {
	a := NewArray(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Set(0, 0, 4)
}

func TestActiveCountsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := NewArray(8, 100, 3)
	for r := 0; r < 8; r++ {
		for c := 0; c < 100; c++ {
			a.Set(r, c, uint8(rng.IntN(8)))
		}
	}
	for trial := 0; trial < 50; trial++ {
		input := make([]uint64, a.MaskWords())
		active := make([]bool, 100)
		for c := 0; c < 100; c++ {
			if rng.IntN(2) == 1 {
				active[c] = true
				input[c/64] |= 1 << uint(c%64)
			}
		}
		for r := 0; r < 8; r++ {
			counts := make([]int, 8)
			a.ActiveCounts(r, input, counts)
			want := make([]int, 8)
			wantOut := 0
			for c := 0; c < 100; c++ {
				if active[c] && a.Level(r, c) != 0 {
					want[a.Level(r, c)]++
					wantOut += int(a.Level(r, c))
				}
			}
			for l := 1; l < 8; l++ {
				if counts[l] != want[l] {
					t.Fatalf("row %d level %d: %d vs %d", r, l, counts[l], want[l])
				}
			}
			if got := a.IdealRowOutput(r, input); got != wantOut {
				t.Fatalf("row %d output %d, want %d", r, got, wantOut)
			}
			if got := OutputFromCounts(counts); got != wantOut {
				t.Fatalf("OutputFromCounts %d, want %d", got, wantOut)
			}
		}
	}
}

func TestMaxOutput(t *testing.T) {
	a := NewArray(4, 128, 2)
	if a.MaxOutput() != 3*128 {
		t.Fatalf("MaxOutput = %d", a.MaxOutput())
	}
}

func TestSliceLevels(t *testing.T) {
	// Figure 2's example in miniature: value with known bit pattern.
	w := core.WordFromU64(0b11_01_00_10)
	lv, err := SliceLevelsInto(nil, w, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{2, 0, 1, 3}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("slice %d = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestSliceLevelsTooFewRows(t *testing.T) {
	if _, err := SliceLevelsInto(nil, core.Pow2Word(10), 2, 5); err == nil {
		t.Fatal("expected error: 11-bit word needs 6 rows at 2b")
	}
}

// TestSliceLevelsIntoReusesBuffer checks that slicing into a dirty buffer
// with room reuses its backing array and overwrites every level, rows past
// the word included (they read 0), for every cell width.
func TestSliceLevelsIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	buf := make([]uint8, 300)
	for bpc := 1; bpc <= 8; bpc++ {
		for trial := 0; trial < 20; trial++ {
			w := core.Word{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
			nRows := (core.WordBits+bpc-1)/bpc + trial%3
			for i := range buf {
				buf[i] = 0xff
			}
			lv, err := SliceLevelsInto(buf[:0], w, bpc, nRows)
			if err != nil {
				t.Fatal(err)
			}
			if len(lv) != nRows || &lv[0] != &buf[0] {
				t.Fatalf("bpc=%d: %d levels in a new array, want %d in buf", bpc, len(lv), nRows)
			}
			for r, l := range lv {
				if want := uint8(w.ExtractBits(uint(r*bpc), uint(bpc))); l != want {
					t.Fatalf("bpc=%d row %d: level %d, want %d", bpc, r, l, want)
				}
			}
		}
	}
}

// TestSliceReduceRoundTrip is the Figure 1/2 identity: slicing a word into
// rows and reducing the per-row values with shift-and-add reproduces it.
func TestSliceReduceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, bpc := range []int{1, 2, 3, 4, 5} {
		for trial := 0; trial < 50; trial++ {
			var w core.Word
			for i := 0; i < 3; i++ {
				w[i] = rng.Uint64()
			}
			nRows := (w.BitLen() + bpc - 1) / bpc
			lv, err := SliceLevelsInto(nil, w, bpc, nRows)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]int, nRows)
			for r, l := range lv {
				outs[r] = int(l)
			}
			back, ok := ReduceRows(outs, bpc)
			if !ok || back != w {
				t.Fatalf("bpc=%d: round trip failed", bpc)
			}
		}
	}
}

// TestMVMThroughArray checks the end-to-end noiseless identity: programming
// encoded columns and summing sliced rows over an input mask computes the
// exact integer dot product of the encoded values.
func TestMVMThroughArray(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const cols = 90
	vals := make([]uint64, cols)
	for j := range vals {
		vals[j] = uint64(rng.IntN(1 << 20))
	}
	a := NewArray(16, cols, 2)
	words := make([]core.Word, cols)
	for j, v := range vals {
		words[j] = core.WordFromU64(v << 3)
	}
	if _, err := programWords(a, words); err != nil {
		t.Fatal(err)
	}
	input := make([]uint64, a.MaskWords())
	var want uint64
	for j := range vals {
		if rng.IntN(2) == 1 {
			input[j/64] |= 1 << uint(j%64)
			want += vals[j] << 3
		}
	}
	outs := make([]int, a.Rows)
	for r := 0; r < a.Rows; r++ {
		outs[r] = a.IdealRowOutput(r, input)
	}
	got, ok := ReduceRows(outs, 2)
	if !ok {
		t.Fatal("reduction overflow")
	}
	if got.Low64() != want || got.BitLen() > 64 {
		t.Fatalf("MVM = %v, want %d", got, want)
	}
}

func TestReduceRowsRejectsNegative(t *testing.T) {
	if _, ok := ReduceRows([]int{1, -1}, 2); ok {
		t.Fatal("negative ADC output must be rejected")
	}
}

func TestInputMasks(t *testing.T) {
	vals := []uint64{0b101, 0b010, 0b111}
	masks := InputMasks(vals, 3)
	if len(masks) != 3 {
		t.Fatalf("mask count = %d", len(masks))
	}
	// Bit 0: columns 0 and 2. Bit 1: columns 1 and 2. Bit 2: 0 and 2.
	if masks[0][0] != 0b101 || masks[1][0] != 0b110 || masks[2][0] != 0b101 {
		t.Fatalf("masks = %b %b %b", masks[0][0], masks[1][0], masks[2][0])
	}
}

func TestInputMasksWide(t *testing.T) {
	vals := make([]uint64, 70)
	vals[69] = 1
	masks := InputMasks(vals, 1)
	if len(masks[0]) != 2 || masks[0][1] != 1<<5 {
		t.Fatalf("wide mask wrong: %v", masks[0])
	}
}

// Property: bit-serial reconstruction — summing per-bit ideal outputs
// weighted by 2^b equals the dot product with full input values.
func TestBitSerialReconstructionQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		const cols, inBits = 40, 4
		weights := make([]uint64, cols)
		inputs := make([]uint64, cols)
		for j := range weights {
			weights[j] = uint64(rng.IntN(256))
			inputs[j] = uint64(rng.IntN(1 << inBits))
		}
		a := NewArray(8, cols, 1)
		words := make([]core.Word, cols)
		for j, w := range weights {
			words[j] = core.WordFromU64(w)
		}
		if _, err := programWords(a, words); err != nil {
			return false
		}
		masks := InputMasks(inputs, inBits)
		var got uint64
		for b, m := range masks {
			outs := make([]int, a.Rows)
			for r := range outs {
				outs[r] = a.IdealRowOutput(r, m)
			}
			red, ok := ReduceRows(outs, 1)
			if !ok {
				return false
			}
			got += red.Low64() << uint(b)
		}
		var want uint64
		for j := range weights {
			want += weights[j] * inputs[j]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestNewArrayAllocsConstant pins the flat layout's footprint: an array is
// a fixed handful of slabs, so a 512-row array costs exactly as many heap
// objects as an 8-row one.
func TestNewArrayAllocsConstant(t *testing.T) {
	allocs := func(rows int) float64 {
		return testing.AllocsPerRun(20, func() { NewArrayWithSpares(rows, 128, 2, 4) })
	}
	small, large := allocs(8), allocs(512)
	if small != large {
		t.Fatalf("NewArrayWithSpares makes %v allocations at 8 rows but %v at 512", small, large)
	}
	if small > 6 {
		t.Fatalf("NewArrayWithSpares makes %v allocations, want at most 6 (the array and its slabs)", small)
	}
}
