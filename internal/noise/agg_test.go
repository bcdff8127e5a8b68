package noise

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// TestAggregateRowLevelsMatchesFull checks the level-list aggregation path
// against the full-scan one on random sparse count vectors: same float
// accumulation order, bit-identical aggregates.
func TestAggregateRowLevelsMatchesFull(t *testing.T) {
	p := DefaultDeviceParams()
	p.BitsPerCell = 3
	s, err := NewRowSampler(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(12, 34))
	k := p.NumLevels()
	for trial := 0; trial < 200; trial++ {
		counts := make([]int, k)
		var levels []uint8
		for l := 1; l < k; l++ {
			switch rng.IntN(3) {
			case 0: // absent level: zero count, not listed
			case 1: // present level with zero active count: listed, zero
				levels = append(levels, uint8(l))
			case 2:
				levels = append(levels, uint8(l))
				counts[l] = 1 + rng.IntN(64)
			}
		}
		want := s.AggregateRow(counts)
		got := s.AggregateRowLevels(levels, counts)
		if got != want {
			t.Fatalf("trial %d (levels %v counts %v): list agg %+v, full agg %+v",
				trial, levels, counts, got, want)
		}
		fused, ideal := s.AggregateRowLevelsIdeal(levels, counts)
		if fused != want {
			t.Fatalf("trial %d: fused agg %+v, full agg %+v", trial, fused, want)
		}
		wantIdeal := 0
		for l, c := range counts {
			wantIdeal += l * c
		}
		if ideal != wantIdeal {
			t.Fatalf("trial %d: fused ideal %d, want %d", trial, ideal, wantIdeal)
		}
	}
}

// TestSampleDrawMatchesSampleAgg: resolving an aggregate ahead of its draws
// (PrepareDraw, no RNG) and sampling it later (SampleDraw) must match
// SampleAgg bit for bit and draw for draw, across the binomial table and
// normal regimes, rows with no RTN population, and PRTN 0 and 1.
func TestSampleDrawMatchesSampleAgg(t *testing.T) {
	for _, prtn := range []float64{0, 0.27, 0.73, 1} {
		p := DefaultDeviceParams()
		p.PRTN = prtn
		s, err := NewRowSampler(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(5, 6))
		ref := rand.New(rand.NewPCG(8, 9))
		fr := stats.FastSub(0, 0)
		fr.Source().Seed(8, 9)
		sn := s.BinomSnapshot()
		for trial := 0; trial < 2000; trial++ {
			counts := make([]int, p.NumLevels())
			for l := range counts {
				if rng.IntN(3) != 0 {
					counts[l] = rng.IntN(80)
				}
			}
			agg := s.AggregateRow(counts)
			d := s.PrepareDraw(&sn, agg)
			want := s.SampleAgg(ref, agg)
			if got := s.SampleDraw(fr, &d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("PRTN=%g trial %d (agg %+v): SampleDraw %v, SampleAgg %v", prtn, trial, agg, got, want)
			}
		}
		if ref.Uint64() != fr.Uint64() {
			t.Fatalf("PRTN=%g: draw consumption differs", prtn)
		}
	}
}
