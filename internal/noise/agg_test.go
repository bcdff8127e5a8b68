package noise

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// TestAggregateLevelsMatchesFull checks the read path's one aggregation —
// one column of the level-major counts walked over a row's level list —
// against the full-scan AggregateRow and the ideal sum(level*count), bit
// for bit, on random sparse counts of B images x planes columns: absent
// levels (unlisted, and garbage in the flat buffer, which the crossbar
// kernel never writes there), listed levels with zero active count, PRTN
// 0 and 1 as well as in between, and a device with no RTN-active level.
func TestAggregateLevelsMatchesFull(t *testing.T) {
	def := DefaultDeviceParams().DeltaRLoFrac
	// A vanishing RTN amplitude puts every level below stepFloor.
	for _, dev := range []struct{ prtn, deltaRLo float64 }{{0, def}, {0.27, def}, {1, def}, {0.27, 1e-12}} {
		p := DefaultDeviceParams()
		p.BitsPerCell = 3
		p.PRTN, p.DeltaRLoFrac = dev.prtn, dev.deltaRLo
		name := fmt.Sprintf("PRTN=%g DeltaRLoFrac=%g", dev.prtn, dev.deltaRLo)
		s, err := NewRowSampler(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(12, 34))
		k := p.NumLevels()
		for trial := 0; trial < 200; trial++ {
			images := 1 + rng.IntN(4)
			planes := 1 + rng.IntN(3)
			stride := images * planes
			var levels []uint8
			listed := make([]bool, k)
			for l := 1; l < k; l++ {
				if rng.IntN(3) != 0 {
					levels = append(levels, uint8(l))
					listed[l] = true
				}
			}
			counts := make([]int, k*stride)
			for l := 0; l < k; l++ {
				for j := 0; j < stride; j++ {
					switch {
					case !listed[l]:
						counts[l*stride+j] = -1 - rng.IntN(1000) // never read
					case rng.IntN(3) == 0: // listed, no active cell
					default:
						counts[l*stride+j] = 1 + rng.IntN(64)
					}
				}
			}
			for j := 0; j < stride; j++ {
				full := make([]int, k)
				wantIdeal := 0
				for _, lv := range levels {
					full[lv] = counts[int(lv)*stride+j]
					wantIdeal += int(lv) * full[lv]
				}
				want := s.AggregateRow(full)
				got, ideal := s.AggregateLevels(levels, counts, stride, j)
				if got.N != want.N || !sameBits(got.Sbar, want.Sbar) || !sameBits(got.Resid, want.Resid) || !sameBits(got.Sigma, want.Sigma) {
					t.Fatalf("%s trial %d image %d plane %d (levels %v counts %v): level-list agg %+v, full agg %+v",
						name, trial, j/planes, j%planes, levels, full, got, want)
				}
				if ideal != wantIdeal {
					t.Fatalf("%s trial %d image %d plane %d: level-list ideal %d, want %d",
						name, trial, j/planes, j%planes, ideal, wantIdeal)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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
			var d RowDraw
			s.PrepareDraw(&sn, agg, &d)
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
