package stats

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBinomialMatchesSampleBinomial proves the cached sampler is
// draw-for-draw interchangeable with SampleBinomial: identical values AND
// identical RNG consumption (checked by comparing a canary draw after each
// sampling sequence), across the inversion, reflection, normal, and
// Bernoulli-fallback regimes.
func TestBinomialMatchesSampleBinomial(t *testing.T) {
	ps := []float64{0, 1e-9, 0.01, 0.27, 0.5, 0.73, 0.999, 1, 1.5, -0.1}
	ns := []int{-3, 0, 1, 2, 7, 29, 30, 31, 64, 100, 128, 333, 1024}
	for _, p := range ps {
		b := NewBinomial(p)
		for _, n := range ns {
			for seed := uint64(1); seed <= 5; seed++ {
				ra := rand.New(rand.NewPCG(seed, 99))
				rb := rand.New(rand.NewPCG(seed, 99))
				// Interleave several draws so per-call state also matches.
				for i := 0; i < 4; i++ {
					want := SampleBinomial(ra, n, p)
					got := b.Sample(rb, n)
					if got != want {
						t.Fatalf("p=%g n=%d seed=%d draw %d: cached %d, reference %d", p, n, seed, i, got, want)
					}
				}
				if ca, cb := ra.Uint64(), rb.Uint64(); ca != cb {
					t.Fatalf("p=%g n=%d seed=%d: RNG canary diverged (%d vs %d) — draw consumption differs", p, n, seed, ca, cb)
				}
			}
		}
	}
}

// TestBinomialBernoulliFallback pins the Pow-underflow regime. The live
// thresholds make it unreachable (inversion requires np < 12 or n < 30, and
// q^n with q >= 0.5, n < ~1000 never underflows), but a future threshold
// change could expose it, so the table builder and Binomial.Sample must already
// consume draws exactly like binomialInversion: one discarded u, then n
// Bernoulli trials.
func TestBinomialBernoulliFallback(t *testing.T) {
	const n, p = 3000, 0.4
	mode, cdf, guide := buildBinomTable(n, p)
	if mode != binomBernoulli {
		t.Fatalf("expected Pow(%g, %d) to underflow into the Bernoulli regime", 1-p, n)
	}
	tab := &BinomTable{n: n, mode: mode, pEff: p, cdf: cdf, guide: guide}
	ra := rand.New(rand.NewPCG(7, 1))
	rb := rand.New(rand.NewPCG(7, 1))
	_ = ra.Float64() // the u binomialInversion draws before detecting underflow
	want := 0
	for i := 0; i < n; i++ {
		if ra.Float64() < p {
			want++
		}
	}
	// Plant the table in the cache so Sample takes the fallback for n.
	b := NewBinomial(p)
	planted := make([]atomic.Pointer[BinomTable], n+1)
	planted[n].Store(tab)
	b.tables.Store(&planted)
	if got := b.Sample(rb, n); got != want {
		t.Fatalf("bernoulli fallback: cached %d, manual %d", got, want)
	}
	canary := ra.Uint64()
	if rb.Uint64() != canary {
		t.Fatalf("bernoulli fallback consumed a different number of draws")
	}
	// The FastRand path over the same table draws identically.
	fr := FastSub(0, 0)
	fr.Source().Seed(7, 1)
	if got := tab.Sample(fr); got != want {
		t.Fatalf("bernoulli fallback (FastRand): %d, manual %d", got, want)
	}
	if fr.Uint64() != canary {
		t.Fatalf("bernoulli fallback (FastRand) consumed a different number of draws")
	}
}

// TestBinomialConcurrent exercises the lazy table growth under concurrent
// first use; the race detector is the real assertion.
func TestBinomialConcurrent(t *testing.T) {
	b := NewBinomial(0.27)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; n < 128; n++ {
				ref := rand.New(rand.NewPCG(uint64(g), uint64(n)))
				chk := rand.New(rand.NewPCG(uint64(g), uint64(n)))
				if b.Sample(chk, n) != SampleBinomial(ref, n, 0.27) {
					t.Errorf("goroutine %d n=%d diverged", g, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// linearInvert is the full CDF scan the guide table replaces: the first k
// with u <= cdf[k], or n past a plateau below u.
func linearInvert(cdf []float64, n int, u float64) int {
	for k, c := range cdf {
		if u <= c {
			return k
		}
	}
	return n
}

// TestGuideInvertMatchesLinearScan: the guide-table search must return the
// linear scan's k for every u that can tell them apart — 0, each cdf entry
// and its float neighbours, each guide bucket boundary and its neighbours,
// and a u above a CDF plateau that stays below 1 — for every n up to the
// largest row population an array can hold (1024 columns), with p below
// and above 0.5. The normal regime's cached mean and sigma must equal the
// inline expressions bit for bit.
func TestGuideInvertMatchesLinearScan(t *testing.T) {
	plateaus := 0
	for _, p := range []float64{0.01, 0.27, 0.5, 0.73, 0.97} {
		b := NewBinomial(p)
		pEff := min(p, 1-p)
		for n := 1; n <= 1024; n++ {
			tab := b.table(n)
			np := float64(n) * pEff
			if np >= 12 && n >= 30 {
				if tab.mode != binomNormal {
					t.Fatalf("p=%g n=%d: mode %d, want the normal approximation", p, n, tab.mode)
				}
				if math.Float64bits(tab.np) != math.Float64bits(np) ||
					math.Float64bits(tab.sigma) != math.Float64bits(math.Sqrt(np*(1-pEff))) {
					t.Fatalf("p=%g n=%d: cached np %v sigma %v differ from the inline expressions", p, n, tab.np, tab.sigma)
				}
				continue
			}
			if tab.mode == binomBernoulli {
				continue
			}
			if tab.mode != binomInvert || tab.refl != (p > 0.5) {
				t.Fatalf("p=%g n=%d: mode %d refl %v", p, n, tab.mode, tab.refl)
			}
			us := []float64{0}
			for _, c := range tab.cdf {
				us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			g := float64(len(tab.guide))
			for j := range tab.guide {
				lo := float64(j) / g
				us = append(us, lo, math.Nextafter(lo, 0), math.Nextafter(lo, 2))
			}
			if last := tab.cdf[len(tab.cdf)-1]; last < 1 {
				plateaus++
				us = append(us, math.Nextafter(last, 2), (last+1)/2)
			}
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := tab.invert(u), linearInvert(tab.cdf, n, u); got != want {
					t.Fatalf("p=%g n=%d u=%v: guide search %d, linear scan %d", p, n, u, got, want)
				}
			}
		}
	}
	if plateaus == 0 {
		t.Fatal("no CDF plateaued below 1; the plateau case went untested")
	}
	// The live thresholds never build a Bernoulli table (see
	// TestBinomialBernoulliFallback); the builder must still produce one,
	// without a guide, where Pow underflows.
	if mode, _, guide := buildBinomTable(3000, 0.4); mode != binomBernoulli || guide != nil {
		t.Fatalf("n=3000 p=0.4: mode %d, want the Bernoulli fallback", mode)
	}
}
