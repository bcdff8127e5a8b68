package core

import "testing"

// FuzzDecode throws arbitrary shift-weighted corruptions at encoded words
// and checks the ECU's safety contract: a word whose arithmetic invariant
// is broken (not divisible by A*B) must NEVER come back StatusClean — the
// one outcome that would silently feed a wrong value to the reduction tree.
// (A corruption that lands on another multiple of A*B is undetectable by
// any AN code and legitimately decodes Clean; that is the code-distance
// limit, not an ECU bug.) It also pins the revert-to-uncorrected policy
// and the divisibility of every corrected result.
func FuzzDecode(f *testing.F) {
	const dataBits = 16
	abn, err := NewStaticCode(dataBits, 3)
	if err != nil {
		f.Fatal(err)
	}
	an, err := NewStaticCode(dataBits, 1)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint64(0), uint8(0), int8(0), uint8(0), int8(0), false)
	f.Add(uint64(1), uint8(0), int8(1), uint8(0), int8(0), false)
	f.Add(uint64(65535), uint8(3), int8(-1), uint8(9), int8(2), true)
	f.Add(uint64(40000), uint8(20), int8(4), uint8(1), int8(-4), false)
	f.Add(uint64(12345), uint8(7), int8(127), uint8(7), int8(-127), true)

	f.Fuzz(func(t *testing.T, data uint64, shift1 uint8, mag1 int8, shift2 uint8, mag2 int8, useAN bool) {
		c := abn
		if useAN {
			c = an
		}
		data &= (1 << dataBits) - 1
		enc, err := c.EncodeU64(data)
		if err != nil {
			t.Fatalf("encoding %d: %v", data, err)
		}
		wordBits := uint(dataBits + c.CheckBits())

		// Apply up to two injected errors of the physical form +/-mag*2^s
		// (a cell stuck or drifted in bit plane s). Corruptions that would
		// underflow below zero or overflow the Word are skipped: the ADC
		// clamps, so such values cannot reach the ECU.
		corrupted := enc
		for _, e := range [...]struct {
			shift uint8
			mag   int8
		}{{shift1, mag1}, {shift2, mag2}} {
			s := uint(e.shift) % wordBits
			switch {
			case e.mag > 0:
				next := corrupted
				if next.AddShifted(uint64(e.mag), s) {
					corrupted = next
				}
			case e.mag < 0:
				delta := WordFromU64(uint64(-int64(e.mag))).Lsh(s)
				if next, borrow := corrupted.Sub(delta); borrow == 0 {
					corrupted = next
				}
			}
		}

		fixed, status := c.Correct(corrupted)
		broken := corrupted.ModU64(c.M()) != 0

		// The core safety property: a detectably-corrupted word must
		// never be declared Clean.
		if broken && status == StatusClean {
			t.Fatalf("corrupted word %v (enc %v, residue %d mod %d) decoded Clean",
				corrupted, enc, corrupted.ModU64(c.M()), c.M())
		}
		switch status {
		case StatusClean:
			if fixed != corrupted {
				t.Fatalf("Clean changed the word: %v -> %v", corrupted, fixed)
			}
		case StatusCorrected:
			if fixed.ModU64(c.M()) != 0 {
				t.Fatalf("Corrected result %v not divisible by M=%d", fixed, c.M())
			}
			if !broken {
				t.Fatalf("valid word %v was 'corrected' to %v", corrupted, fixed)
			}
		case StatusDetected:
			// Section VI-A: the hardware reverts to the uncorrected value.
			if fixed != corrupted {
				t.Fatalf("Detected did not revert: %v -> %v", corrupted, fixed)
			}
		default:
			t.Fatalf("unknown status %v", status)
		}

		if status != StatusDetected {
			if _, rem := c.Decode(fixed); rem != 0 {
				t.Fatalf("status %v left remainder %d at the decoder", status, rem)
			}
		}
		// An untouched word round-trips exactly.
		if corrupted == enc {
			if status != StatusClean {
				t.Fatalf("unmodified encoding flagged %v", status)
			}
			if q, _ := c.Decode(fixed); q.Low64() != data {
				t.Fatalf("round trip %d -> %d", data, q.Low64())
			}
		}
	})
}

// FuzzExtractBits checks the limb-reading ExtractBits against the full-word
// Rsh reference for arbitrary words, offsets (including past the Word) and
// widths 1..64.
func FuzzExtractBits(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint16(0), uint8(1))
	f.Add(^uint64(0), uint64(1), uint64(2), uint64(3), uint16(60), uint8(8))
	f.Add(uint64(0x0123456789abcdef), uint64(0xfedcba9876543210), uint64(7), ^uint64(0), uint16(127), uint8(64))
	f.Add(uint64(5), uint64(6), uint64(7), uint64(0x8000000000000000), uint16(255), uint8(2))
	f.Add(uint64(9), uint64(9), uint64(9), uint64(9), uint16(300), uint8(17))

	f.Fuzz(func(t *testing.T, l0, l1, l2, l3 uint64, offset uint16, width uint8) {
		w := Word{l0, l1, l2, l3}
		wd := uint(width)%64 + 1
		off := uint(offset)
		got, want := w.ExtractBits(off, wd), extractBitsRef(w, off, wd)
		if got != want {
			t.Fatalf("%v.ExtractBits(%d,%d) = %#x, want %#x", w, off, wd, got, want)
		}
	})
}
