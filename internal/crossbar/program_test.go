package crossbar

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// sliceLevel is row r's cell level of the bit-sliced word w, one
// ExtractBits call per row: the reference the streamed SliceLevelsInto
// must reproduce.
func sliceLevel(w core.Word, bitsPerCell, r int) uint8 {
	return uint8(w.ExtractBits(uint(r*bitsPerCell), uint(bitsPerCell)))
}

// programWords blind-writes word j's bit slices down column j of a fresh
// array, one slice per logical row from row 0, and returns the slab.
func programWords(a *Array, words []core.Word) ([]uint8, error) {
	levels := make([]uint8, a.Rows*a.Cols)
	for j, w := range words {
		if _, err := SliceLevelsInto(levels[j*a.Rows:(j+1)*a.Rows], w, a.BitsPerCell, a.Rows); err != nil {
			return nil, err
		}
	}
	return levels, a.ProgramLevels(levels)
}

// sameArray reports whether two arrays hold the same cells, masks,
// present-level lists, faults, drift count and row map.
func sameArray(a, b *Array) bool {
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) || !reflect.DeepEqual(a.cells, b.cells) ||
		!reflect.DeepEqual(a.masks, b.masks) || a.drifted != b.drifted {
		return false
	}
	for p := 0; p < a.physRows(); p++ {
		if !reflect.DeepEqual(a.levelSlot(p), b.levelSlot(p)) {
			return false
		}
	}
	return true
}

// FuzzProgramLevels: the bulk write plus the verify pass must leave the
// same array, the same VerifyTally and the same verify-stream position as
// a per-cell ProgramVerify loop in column/row order over the same stream,
// at 1 to 4 bits per cell (3-bit slices straddle limbs), with and without
// pulse misses and with spare lines; and the streamed SliceLevelsInto must
// match the per-row reference.
func FuzzProgramLevels(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(40), uint8(7), true, uint8(5))
	f.Add(uint64(2), uint8(2), uint8(86), uint8(129), true, uint8(3))
	f.Add(uint64(3), uint8(3), uint8(90), uint8(64), false, uint8(1))
	f.Add(uint64(4), uint8(4), uint8(1), uint8(65), true, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, bpc, rows, cols uint8, withFail bool, maxIters uint8) {
		cell := 1 + int(bpc%4)
		nRows := 1 + int(rows)%((core.WordBits+cell-1)/cell+4)
		nCols := 1 + int(cols)%130
		rng := rand.New(rand.NewPCG(seed, 7))
		words := make([]core.Word, nCols)
		bitsUsed := min(core.WordBits, nRows*cell)
		for j := range words {
			for i := range words[j] {
				words[j][i] = rng.Uint64()
			}
			words[j] = words[j].Rsh(uint(core.WordBits - rng.IntN(bitsUsed+1)))
		}
		var pulseFail []float64
		if withFail {
			pulseFail = make([]float64, 1<<cell)
			for l := range pulseFail {
				if rng.IntN(3) > 0 {
					pulseFail[l] = rng.Float64() * 0.7
				}
			}
		}
		spares := int(seed % 3)
		iters := int(maxIters % 7) // 0 exercises the one-pulse floor

		// Reference: verify-program cell by cell.
		slow := NewArrayWithSpares(nRows, nCols, cell, spares)
		slowRNG := rand.New(stats.SubPCG(seed, 1))
		var slowTally VerifyTally
		for j, w := range words {
			for r := 0; r < nRows; r++ {
				pulses, ok := slow.ProgramVerify(r, j, sliceLevel(w, cell, r), iters, pulseFail, slowRNG)
				slowTally.Note(pulses, ok)
			}
		}

		// Bulk: write the fresh array, then run the verify pass over the
		// same slab.
		fast := NewArrayWithSpares(nRows, nCols, cell, spares)
		levels, err := programWords(fast, words)
		if err != nil {
			t.Fatal(err)
		}
		fastRNG := stats.FastSub(seed, 1)
		var fastTally VerifyTally
		var pass VerifyPass
		pass.Prepare(levels, pulseFail)
		pass.Draw(iters, fastRNG, &fastTally)

		if !sameArray(fast, slow) {
			t.Fatalf("bulk-programmed array differs from the per-cell loop")
		}
		if !reflect.DeepEqual(fastTally, slowTally) {
			t.Fatalf("tally %+v, per-cell loop %+v", fastTally, slowTally)
		}
		if a, b := fastRNG.Uint64(), slowRNG.Uint64(); a != b {
			t.Fatalf("verify stream ends at %#x, per-cell loop at %#x", a, b)
		}
		for _, w := range words {
			lv, err := SliceLevelsInto(nil, w, cell, nRows)
			if err != nil {
				t.Fatal(err)
			}
			for r, l := range lv {
				if want := sliceLevel(w, cell, r); l != want {
					t.Fatalf("bits=%d row %d: streamed level %d, per-row %d", cell, r, l, want)
				}
			}
		}
	})
}

// TestProgramLevelsRefusesDamagedArray: the bulk write assumes every
// cell's effective level follows its target, so an array with a stuck or
// drifted cell, or a slab of the wrong size, is refused untouched, and a
// level past the cell width is an error.
func TestProgramLevelsRefusesDamagedArray(t *testing.T) {
	levels := make([]uint8, 4*8)
	a := NewArray(4, 8, 2)
	if err := a.ProgramLevels(levels[:31]); err == nil {
		t.Fatal("short slab accepted")
	}
	a.SetStuck(1, 1, 3)
	if err := a.ProgramLevels(levels); err == nil {
		t.Fatal("array with a stuck cell accepted")
	}
	b := NewArray(4, 8, 2)
	b.DriftCell(0, 0, 1)
	if err := b.ProgramLevels(levels); err == nil {
		t.Fatal("array with a drifted cell accepted")
	}
	levels[5] = 4
	if err := NewArray(4, 8, 2).ProgramLevels(levels); err == nil {
		t.Fatal("level past the cell width accepted")
	}
}
