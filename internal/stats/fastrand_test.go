package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestFastRandMatchesRand: FastRand must be draw-for-draw and bit-for-bit
// identical to rand.Rand over the same PCG state, including interleaved
// variate kinds (the MVM read path mixes binomial inversion Float64s,
// ziggurat NormFloat64s, and flicker Float64s on one stream).
func TestFastRandMatchesRand(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		ref := rand.New(rand.NewPCG(seed, seed^streamSalt))
		fr := NewFast(seed)
		for i := 0; i < 200000; i++ {
			switch i % 4 {
			case 0, 2:
				a, b := ref.Float64(), fr.Float64()
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, a, b)
				}
			case 1:
				a, b := ref.NormFloat64(), fr.NormFloat64()
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, a, b)
				}
			case 3:
				if a, b := ref.Uint64(), fr.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, a, b)
				}
			}
		}
	}
}

// TestBinomSnapshotMatchesSample: the snapshot's tables must sample
// identically to Binomial.Sample — same values, same RNG consumption — for
// table, normal-approximation, reflection, and Bernoulli-fallback regimes.
func TestBinomSnapshotMatchesSample(t *testing.T) {
	for _, p := range []float64{0.27, 0.73, 1e-18, 0.5} {
		b := NewBinomial(p)
		ref := rand.New(rand.NewPCG(7, 7))
		fr := FastSub(0, 0)
		ReseedSub(fr.Source(), 7, 0)
		fr.Source().Seed(7, 7) // identical raw state to ref
		sn := b.Snapshot()     // empty snapshot: every n falls through
		for i := 0; i < 3000; i++ {
			n := i % 200
			a := b.Sample(ref, n)
			c := sn.Table(n).Sample(fr)
			if a != c {
				t.Fatalf("p=%g n=%d draw %d: %d != %d", p, n, i, a, c)
			}
		}
		// Warm snapshot (tables now built): same again.
		sn = b.Snapshot()
		for i := 0; i < 3000; i++ {
			n := i % 200
			a := b.Sample(ref, n)
			c := sn.Table(n).Sample(fr)
			if a != c {
				t.Fatalf("warm p=%g n=%d draw %d: %d != %d", p, n, i, a, c)
			}
		}
		// Streams must still be aligned after all regimes.
		if ref.Uint64() != fr.Uint64() {
			t.Fatalf("p=%g: stream desynchronized", p)
		}
	}
}
