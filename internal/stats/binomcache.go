package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Binomial is a fixed-p binomial sampler that caches the per-n state
// SampleBinomial rebuilds on every call. The hot MVM loop draws
// Binomial(n, PRTN) once per (row, input-bit) with p fixed for the lifetime
// of the device model, so the regime choice, the normal approximation's
// sigma, and the inversion path's pmf recurrence — dominated by a math.Pow
// per draw — are pure rework; the cache amortizes them to one build per
// distinct n.
//
// Sample is draw-for-draw identical to SampleBinomial(rng, n, p): the same
// inputs consume the same number and kind of RNG variates and return the
// same value, including the p>0.5 reflection, the normal-approximation
// regime, and the Bernoulli underflow fallback. The CDF tables are built
// with the exact float recurrence of binomialInversion so the inverted
// values match bit for bit.
//
// Sample is safe for concurrent use by multiple goroutines (each with its
// own rng); the table cache grows under a mutex and publishes atomically.
type Binomial struct {
	p    float64 // the caller's p, used for edge cases and Bernoulli trials
	pEff float64 // min(p, 1-p): the p the tables are built for
	refl bool    // p > 0.5: return n - k

	mu sync.Mutex
	// tables[n] holds n's state once built. The slice grows tableBlock
	// slots at a time and is republished only then, so a new n is one
	// store into its slot, not a copy of the slice.
	tables atomic.Pointer[[]atomic.Pointer[BinomTable]]
	// slab hands out table structs a block at a time (guarded by mu).
	slab []BinomTable
}

// binomMode is a BinomTable's sampling regime.
type binomMode uint8

const (
	// binomFixed returns k without drawing (n <= 0, p <= 0, or p >= 1).
	binomFixed binomMode = iota
	// binomNormal draws one NormFloat64 (np >= 12 and n >= 30).
	binomNormal
	// binomInvert inverts one Float64 through the cached CDF.
	binomInvert
	// binomBernoulli burns one Float64, then counts n Bernoulli trials:
	// binomialInversion's fallback when its pmf head math.Pow(q, n)
	// underflows to 0.
	binomBernoulli
)

// BinomTable is the cached sampling state of one n: its regime and
// everything the regime needs that depends on n alone. Immutable once
// published, so a row read can resolve it ahead of its draw (even on
// another goroutine) and sample from it later.
type BinomTable struct {
	n    int
	mode binomMode
	refl bool
	k    int     // binomFixed: the value returned
	pEff float64 // binomBernoulli: the trial probability
	// np and sigma are the normal approximation's mean and deviation,
	// float64(n)*pEff and math.Sqrt(np*(1-pEff)) — the exact expressions
	// SampleBinomial evaluates per draw.
	np, sigma float64
	// cdf[k] = P(X <= k) accumulated with the exact binomialInversion
	// recurrence (not the closed form), so inversion results match bit for
	// bit. Non-decreasing; may plateau below 1 from float rounding.
	cdf []float64
	// guide[j] is the first k with cdf[k] >= j/len(guide) (len(cdf) if
	// none): every u in [j/len(guide), (j+1)/len(guide)) lies above the
	// cdf entries before it, so inversion can start there. len(guide) is a
	// power of two, which makes u*len(guide) exact and the bucket of u
	// exactly int(u*len(guide)).
	guide []int32
}

// maxGuide bounds a table's guide length.
const maxGuide = 1024

// NewBinomial builds a sampler for the fixed success probability p.
func NewBinomial(p float64) *Binomial {
	b := &Binomial{p: p, pEff: p}
	if p > 0.5 && p < 1 {
		b.refl = true
		b.pEff = 1 - p
	}
	return b
}

// P returns the success probability the sampler was built for.
func (b *Binomial) P() float64 { return b.p }

// Sample draws from Binomial(n, p), equivalently to
// SampleBinomial(rng, n, p) in both value and RNG consumption.
func (b *Binomial) Sample(rng *rand.Rand, n int) int {
	if n <= 0 || b.p <= 0 {
		return 0
	}
	if b.p >= 1 {
		return n
	}
	t := b.table(n)
	var k int
	switch t.mode {
	case binomNormal:
		k = t.clamp(int(math.Round(t.np + t.sigma*rng.NormFloat64())))
	case binomInvert:
		k = t.invert(rng.Float64())
	case binomBernoulli:
		// binomialInversion draws u before it can detect pmf underflow, so
		// the fallback burns one Float64 ahead of its n trial draws.
		_ = rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < t.pEff {
				k++
			}
		}
	}
	if t.refl {
		return n - k
	}
	return k
}

// Sample draws from the table's Binomial(n, p), identically (value and RNG
// consumption) to Binomial.Sample over the same rng state.
func (t *BinomTable) Sample(rng *FastRand) int {
	var k int
	switch t.mode {
	case binomFixed:
		return t.k
	case binomNormal:
		k = t.clamp(int(math.Round(t.np + t.sigma*rng.NormFloat64())))
	case binomInvert:
		k = t.invert(rng.Float64())
	case binomBernoulli:
		_ = rng.Float64()
		for i := 0; i < t.n; i++ {
			if rng.Float64() < t.pEff {
				k++
			}
		}
	}
	if t.refl {
		return t.n - k
	}
	return k
}

// N returns the table's trial count.
func (t *BinomTable) N() int { return t.n }

func (t *BinomTable) clamp(k int) int {
	return max(0, min(k, t.n))
}

// invert returns the first k with u <= cdf[k], or n if the CDF plateaus
// below u — binomialInversion's result for the same u. u must lie in
// [0, 1). The guide skips every entry below u's bucket, and the scan from
// there is the same comparison sequence the full scan would reach.
func (t *BinomTable) invert(u float64) int {
	for k := int(t.guide[int(u*float64(len(t.guide)))]); k < len(t.cdf); k++ {
		if u <= t.cdf[k] {
			return k
		}
	}
	return t.n
}

// BinomSnapshot is a per-call-site view of a Binomial's table cache for the
// FastRand hot path: Snapshot loads the atomic table pointer once, so the
// per-read Table skips the atomic load (and its branches) that
// Binomial.Sample pays on every call. A snapshot taken before an MVM stays
// valid forever — tables are immutable once published — and ns it predates
// simply fall through to the locked builder. A snapshot is read-only, so
// several goroutines may resolve tables through one.
type BinomSnapshot struct {
	b      *Binomial
	tables []atomic.Pointer[BinomTable]
}

// Snapshot captures the current table cache. Cheap (one atomic load); take
// one per MVM, not per draw.
func (b *Binomial) Snapshot() BinomSnapshot {
	sn := BinomSnapshot{b: b}
	if p := b.tables.Load(); p != nil {
		sn.tables = *p
	}
	return sn
}

// Table returns the sampling state for n. It touches no RNG.
func (sn *BinomSnapshot) Table(n int) *BinomTable {
	if n >= 0 && n < len(sn.tables) {
		if t := sn.tables[n].Load(); t != nil {
			return t
		}
	}
	return sn.b.table(n)
}

// tableBlock is how many slots one growth of the cache adds, and how many
// table structs one slab holds.
const tableBlock = 64

// table returns the cached state for n, building it on first use.
func (b *Binomial) table(n int) *BinomTable {
	n = max(n, 0)
	if p := b.tables.Load(); p != nil && n < len(*p) {
		if t := (*p)[n].Load(); t != nil {
			return t
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var cur []atomic.Pointer[BinomTable]
	if p := b.tables.Load(); p != nil {
		cur = *p
	}
	if n < len(cur) {
		if t := cur[n].Load(); t != nil {
			return t
		}
	} else {
		grown := make([]atomic.Pointer[BinomTable], max(n+1, len(cur)+tableBlock))
		for i := range cur {
			grown[i].Store(cur[i].Load())
		}
		b.tables.Store(&grown)
		cur = grown
	}
	if len(b.slab) == 0 {
		b.slab = make([]BinomTable, tableBlock)
	}
	t := &b.slab[0]
	b.slab = b.slab[1:]
	b.build(t, n)
	cur[n].Store(t)
	return t
}

// build resolves n's regime with SampleBinomial's tests, in its order.
func (b *Binomial) build(t *BinomTable, n int) {
	*t = BinomTable{n: n, refl: b.refl, pEff: b.pEff}
	switch {
	case n == 0 || b.p <= 0:
		t.mode, t.refl = binomFixed, false
		return
	case b.p >= 1:
		t.mode, t.refl, t.k = binomFixed, false, n
		return
	}
	np := float64(n) * b.pEff
	if np >= 12 && n >= 30 {
		t.mode, t.np, t.sigma = binomNormal, np, math.Sqrt(np*(1-b.pEff))
		return
	}
	t.mode, t.cdf, t.guide = buildBinomTable(n, b.pEff)
}

// buildBinomTable accumulates the CDF with binomialInversion's exact float
// sequence: pmf(0) = Pow(q, n), pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/q, and
// its guide. It returns binomBernoulli, and no table, when the pmf head
// underflows.
func buildBinomTable(n int, p float64) (binomMode, []float64, []int32) {
	q := 1 - p
	ratio := p / q
	pmf := math.Pow(q, float64(n))
	if pmf == 0 {
		return binomBernoulli, nil, nil
	}
	cdf := make([]float64, n+1)
	c := pmf
	cdf[0] = c
	for k := 0; k < n; k++ {
		pmf *= float64(n-k) / float64(k+1) * ratio
		c += pmf
		cdf[k+1] = c
	}
	size := min(1<<bits.Len(uint(n)), maxGuide)
	guide := make([]int32, size)
	k := 0
	for j := range guide {
		// j/size is exact: size is a power of two.
		lo := float64(j) / float64(size)
		for k < len(cdf) && cdf[k] < lo {
			k++
		}
		guide[j] = int32(k)
	}
	return binomInvert, cdf, guide
}
