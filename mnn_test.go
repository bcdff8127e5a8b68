package mnn

import "testing"

// TestFacadeSmoke exercises the public API surface end to end at miniature
// scale: codes, device model, crossbar, accelerator, hardware model.
func TestFacadeSmoke(t *testing.T) {
	// Codes.
	code, err := NewStaticCode(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeU64(1234)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := enc.Add(Pow2Word(7))
	fixed, status := code.Correct(bad)
	if status != StatusCorrected {
		t.Fatalf("status %v", status)
	}
	val, rem := code.Decode(fixed)
	if rem != 0 || val.Low64() != 1234 {
		t.Fatalf("decode = %v rem %d", val, rem)
	}

	// Device model + crossbar.
	dev := DefaultDeviceParams()
	if _, err := NewRowSampler(dev); err != nil {
		t.Fatal(err)
	}
	arr := NewArray(8, 16, 2)
	levels := make([]uint8, 8*16)
	if _, err := SliceLevelsInto(levels[:8], WordFromU64(0xABCD), 2, 8); err != nil {
		t.Fatal(err)
	}
	if err := arr.ProgramLevels(levels); err != nil {
		t.Fatal(err)
	}

	// Accelerator over a tiny network.
	net := NewMLP1(1)
	_ = net // full nets are mapped in the accel tests; here we check scheme wiring
	s := SchemeABN(9)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// Hardware model.
	o := ComputeHWOverheads()
	if o.TileArea < 0.04 || o.TileArea > 0.09 {
		t.Fatalf("tile overhead %g out of the paper's regime", o.TileArea)
	}
	if y := SystemLifetimeYears(1e6, 1827); y < 1.4 || y > 1.6 {
		t.Fatalf("lifetime %g", y)
	}

	// Burst-code extension.
	if _, err := NewBurstTable(MinimalBurstA(12, 3), 12); err != nil {
		t.Fatal(err)
	}

	// Datasets.
	ds := SynthDigits(1, 5, 5)
	if len(ds.Train) != 5 || ds.Classes != 10 {
		t.Fatalf("dataset %v", ds.Name)
	}
}
