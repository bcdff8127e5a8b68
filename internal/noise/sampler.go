package noise

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/stats"
)

// stepFloor discards levels whose RTN excess is too small to ever matter
// (level 0 sits at 5 MΩ and contributes microsteps).
const stepFloor = 1e-6

// RowSampler draws the quantization error of one physical-row read. It
// aggregates the per-level cell populations of the row into a single
// binomial RTN term plus a Gaussian term for programming, thermal, and shot
// noise — the same model the analytic prediction of Section V-B5 uses, so
// the errors the simulator injects match the probabilities the data-aware
// code construction optimizes for.
type RowSampler struct {
	params DeviceParams
	// stepExcess[k] is the current excess, in ADC steps, of one level-k
	// cell while in its RTN error state.
	stepExcess []float64
	// compSteps[k] is the programming-time RTN offset applied to one
	// level-k cell, in steps (clamped: a cell cannot be programmed below
	// the minimum conductance).
	compSteps []float64
	// gSteps[k] is the level conductance in units of DeltaG.
	gSteps []float64
	// progVar[k], thermVar[k] are per-cell noise variances in steps^2.
	progVar  []float64
	thermVar []float64
	// shotVarPerStep converts row current (in steps) to shot variance.
	shotVarPerStep float64
	// invSqrtK scales the zero-mean RTN fluctuation for the ADC's
	// temporal averaging window (1/sqrt(RTNAveraging)).
	invSqrtK float64
	// giantMag[k] is the step magnitude of a giant RTN event on a level-k
	// cell; giant events are not attenuated by averaging.
	giantMag []float64
	// binom caches the CDF tables of the Binomial(n, PRTN) draw so the hot
	// path does not rebuild the pmf recurrence (a math.Pow per draw) for
	// every (row, input-bit). Draw-identical to stats.SampleBinomial.
	binom *stats.Binomial
	// terms mirrors the per-level slices above in array-of-structs layout so
	// the per-(row, bit-plane) aggregation touches one cache line per level
	// instead of six slices. Values are bit-copies of the originals.
	terms []levelTerms
}

// levelTerms is the per-level noise model in hot-path layout.
type levelTerms struct {
	stepExcess, compSteps, progVar, thermVar, gSteps float64
	// rtnActive caches stepExcess > stepFloor.
	rtnActive bool
}

// NewRowSampler precomputes the per-level terms for a device configuration.
func NewRowSampler(p DeviceParams) (*RowSampler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	levels := p.LevelConductances()
	dg := p.DeltaG()
	di := p.VHi * dg // ADC current step
	s := &RowSampler{
		params:     p,
		stepExcess: make([]float64, len(levels)),
		compSteps:  make([]float64, len(levels)),
		gSteps:     make([]float64, len(levels)),
		progVar:    make([]float64, len(levels)),
		thermVar:   make([]float64, len(levels)),
		giantMag:   make([]float64, len(levels)),
	}
	for k, g := range levels {
		excess := p.RTNCurrentExcess(g) / di
		s.stepExcess[k] = excess
		// Full Hu-style mean compensation (Section IV); a cell cannot be
		// programmed below GMin, bounding the offset.
		comp := p.PRTN * excess
		if maxComp := (g - p.GMin()) / dg; comp > maxComp {
			comp = maxComp
		}
		s.compSteps[k] = comp
		s.gSteps[k] = g / dg
		// Programming error: uniform within +/- ProgErrFrac of the target
		// conductance, capped at the program-verify LSB tolerance;
		// variance tol^2/3.
		pe := p.ProgErrFrac * g / dg
		if p.ProgVerifyLSB > 0 && pe > p.ProgVerifyLSB {
			pe = p.ProgVerifyLSB
		}
		s.progVar[k] = pe * pe / 3
		th := p.ThermalNoiseSigma(1/g) / di
		s.thermVar[k] = th * th
		// A giant event drops R by GiantDeltaR: current rises by
		// V*g*d/(1-d) (resistance-domain drop).
		s.giantMag[k] = g / dg * p.GiantDeltaR / (1 - p.GiantDeltaR)
	}
	// Shot variance in steps^2 is 2qfI/di^2 with I = curSteps*di.
	s.shotVarPerStep = 2 * electronCharge * p.SampleFreq / di
	s.invSqrtK = 1 / math.Sqrt(float64(p.RTNAveraging))
	s.binom = stats.NewBinomial(p.PRTN)
	s.terms = make([]levelTerms, len(levels))
	for k := range levels {
		s.terms[k] = levelTerms{
			stepExcess: s.stepExcess[k],
			compSteps:  s.compSteps[k],
			progVar:    s.progVar[k],
			thermVar:   s.thermVar[k],
			gSteps:     s.gSteps[k],
			rtnActive:  s.stepExcess[k] > stepFloor,
		}
	}
	return s, nil
}

// Params returns the device configuration the sampler was built for.
func (s *RowSampler) Params() DeviceParams { return s.params }

// aggregate reduces the per-level active-cell counts to the effective
// single-binomial model: population n, mean RTN step sbar, the residual
// mean shift left after the programming-time compensation, the static
// (programming) and dynamic (thermal+shot) Gaussian variances, and the
// row current in steps.
func (s *RowSampler) aggregate(counts []int) (n int, sbar, residMean, statVar, dynVar float64) {
	var stepSum, meanExcess, comp, curSteps float64
	for k, c := range counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if s.stepExcess[k] > stepFloor {
			n += c
			stepSum += fc * s.stepExcess[k]
			meanExcess += fc * s.params.PRTN * s.stepExcess[k]
		}
		comp += fc * s.compSteps[k]
		statVar += fc * s.progVar[k]
		dynVar += fc * s.thermVar[k]
		curSteps += fc * s.gSteps[k]
	}
	dynVar += s.shotVarPerStep * curSteps
	if n > 0 {
		sbar = stepSum / float64(n)
	}
	return n, sbar, meanExcess - comp, statVar, dynVar
}

// RowAgg is the deterministic part of one row read's noise model: everything
// SampleDeviation derives from the active-cell counts before it touches the
// RNG. Precomputing it lets the accelerator reuse one aggregate across ECU
// retry re-reads instead of re-reducing the counts per attempt.
type RowAgg struct {
	// N is the RTN-active cell population.
	N int
	// Sbar is the mean RTN excess per active cell, in steps.
	Sbar float64
	// Resid is the residual mean shift after programming-time compensation.
	Resid float64
	// Sigma is the combined Gaussian deviation sqrt(statVar + dynVar/K),
	// zero when the variance is non-positive.
	Sigma float64
}

// AggregateRow reduces active-cell counts to the reusable aggregate.
func (s *RowSampler) AggregateRow(counts []int) RowAgg {
	return s.finishAgg(s.aggregate(counts))
}

// AggregateLevels is the read path's aggregation: one (image, bit-plane)'s
// AggregateRow over a row's present-level list, plus the ideal ADC output
// sum(level*count). counts is the flat level-major buffer
// crossbar.ActiveCountsBatch fills, and column j of it is this reduction:
// counts[k*stride+j] is its active-cell count at level k (only listed
// levels are read, matching what the crossbar kernel writes). The running
// sums are locals, so a call keeps the whole reduction in registers.
//
// The result is bit-identical to AggregateRow on the same counts, with
// unlisted levels at zero: the per-level expression shapes and the
// ascending visit order match the full scan exactly. Unlike the full scan
// it does not skip zero counts, which is a pure identity: every per-level
// term is finite and non-negative, so each sum starts at +0.0 and never
// turns negative, and adding the +0.0 products of a zero count leaves
// every float bit unchanged. The ideal output is integer arithmetic
// alongside, so it cannot perturb the float sequence.
func (s *RowSampler) AggregateLevels(levels []uint8, counts []int, stride, j int) (RowAgg, int) {
	var stepSum, meanExcess, comp, statVar, dynVar, curSteps float64
	var n, ideal int
	p := s.params.PRTN
	for _, lv := range levels {
		k := int(lv)
		t := &s.terms[k]
		c := counts[k*stride+j]
		fc := float64(c)
		if t.rtnActive {
			n += c
			stepSum += fc * t.stepExcess
			meanExcess += fc * p * t.stepExcess
		}
		ideal += k * c
		comp += fc * t.compSteps
		statVar += fc * t.progVar
		dynVar += fc * t.thermVar
		curSteps += fc * t.gSteps
	}
	dynVar += s.shotVarPerStep * curSteps
	var sbar float64
	if n > 0 {
		sbar = stepSum / float64(n)
	}
	return s.finishAgg(n, sbar, meanExcess-comp, statVar, dynVar), ideal
}

// AggregateActivity reduces a row's full programmed-level histogram under a
// mean column-activity alpha to two things: the expected-activity aggregate
// (each level contributes alpha*count cells) and the standard deviation, in
// steps, of the residual mean shift across random activity patterns. Each
// cell is active independently with probability alpha and contributes
// r_k = PRTN*stepExcess_k - compSteps_k to the row's mean shift when it is,
// so across patterns the shift fluctuates with variance
// alpha*(1-alpha)*sum_k hist_k*r_k^2 around the mean AggregateRow sees. The
// pattern — and hence the shift — is frozen for the duration of one read's
// retry loop (the input does not change between attempts), which is what
// makes this spread matter: rows whose mean sits inside the rounding window
// can still land persistently outside it on unlucky activity draws.
func (s *RowSampler) AggregateActivity(hist []int, alpha float64) (RowAgg, float64) {
	var stepSum, meanExcess, comp, curSteps, statVar, dynVar, nF, residVar float64
	p := s.params.PRTN
	av := alpha * (1 - alpha)
	for k, c := range hist {
		if c == 0 {
			continue
		}
		fc := alpha * float64(c)
		t := &s.terms[k]
		rk := -t.compSteps
		if t.rtnActive {
			nF += fc
			stepSum += fc * t.stepExcess
			meanExcess += fc * p * t.stepExcess
			rk += p * t.stepExcess
		}
		comp += fc * t.compSteps
		statVar += fc * t.progVar
		dynVar += fc * t.thermVar
		curSteps += fc * t.gSteps
		residVar += av * float64(c) * rk * rk
	}
	dynVar += s.shotVarPerStep * curSteps
	n := int(math.Round(nF))
	var sbar float64
	if n > 0 {
		sbar = stepSum / nF
	}
	return s.finishAgg(n, sbar, meanExcess-comp, statVar, dynVar), math.Sqrt(residVar)
}

func (s *RowSampler) finishAgg(n int, sbar, residMean, statVar, dynVar float64) RowAgg {
	agg := RowAgg{N: n, Sbar: sbar, Resid: residMean}
	if v := statVar + dynVar*s.invSqrtK*s.invSqrtK; v > 0 {
		agg.Sigma = math.Sqrt(v)
	}
	return agg
}

// SampleAgg draws the continuous row-read deviation from a precomputed
// aggregate. SampleAgg(rng, AggregateRow(counts)) is draw-for-draw and
// bit-for-bit identical to SampleDeviation(rng, counts).
func (s *RowSampler) SampleAgg(rng *rand.Rand, agg RowAgg) float64 {
	dev := agg.Resid
	p := s.params.PRTN
	if agg.N > 0 && agg.Sbar > 0 && p > 0 {
		m := s.binom.Sample(rng, agg.N)
		dev += (float64(m) - float64(agg.N)*p) * agg.Sbar * s.invSqrtK
	}
	if agg.Sigma > 0 {
		dev += rng.NormFloat64() * agg.Sigma
	}
	return dev
}

// BinomSnapshot captures the RTN binomial sampler's table cache for a run
// of PrepareDraw calls (one snapshot per MVM; see stats.BinomSnapshot).
func (s *RowSampler) BinomSnapshot() stats.BinomSnapshot { return s.binom.Snapshot() }

// RowDraw is a row read's noise model resolved for the draw loop: the
// aggregate with its RTN population replaced by that population's binomial
// sampling state. PrepareDraw touches no RNG, so it can run ahead of the
// draws (on another goroutine, even); SampleDraw then only draws.
type RowDraw struct {
	// Resid, Sigma and Sbar are the aggregate's residual mean shift,
	// Gaussian deviation, and mean RTN excess per active cell.
	Resid, Sigma, Sbar float64
	// Bin is the Binomial(N, PRTN) sampling state of the RTN population N,
	// nil when the row makes no RTN draw.
	Bin *stats.BinomTable
}

// PrepareDraw resolves an aggregate for SampleDraw into d, writing every
// field in place. sn must come from this sampler's BinomSnapshot.
func (s *RowSampler) PrepareDraw(sn *stats.BinomSnapshot, agg RowAgg, d *RowDraw) {
	var bin *stats.BinomTable
	if agg.N > 0 && agg.Sbar > 0 && s.params.PRTN > 0 {
		bin = sn.Table(agg.N)
	}
	d.Resid, d.Sigma, d.Sbar, d.Bin = agg.Resid, agg.Sigma, agg.Sbar, bin
}

// SampleDraw is SampleAgg on the devirtualized hot-path RNG over a prepared
// draw: SampleDraw(rng, d) after PrepareDraw(sn, agg, d) is bit-for-bit
// and draw-for-draw identical to SampleAgg(rng, agg) over the same PCG
// state.
func (s *RowSampler) SampleDraw(rng *stats.FastRand, d *RowDraw) float64 {
	dev := d.Resid
	if d.Bin != nil {
		m := d.Bin.Sample(rng)
		dev += (float64(m) - float64(d.Bin.N())*s.params.PRTN) * d.Sbar * s.invSqrtK
	}
	if d.Sigma > 0 {
		dev += rng.NormFloat64() * d.Sigma
	}
	return dev
}

// SampleError draws one signed quantization error (in ADC steps) for a row
// read with the given active-cell counts per level. counts must have
// NumLevels entries. The zero-mean RTN fluctuation and the per-conversion
// thermal/shot noise are attenuated by the ADC's temporal averaging; the
// residual mean shift and the static programming error are not.
func (s *RowSampler) SampleError(rng *rand.Rand, counts []int) int {
	return int(math.Round(s.SampleDeviation(rng, counts)))
}

// SampleDeviation draws the continuous current deviation (in steps) of one
// row read, before quantization. The accelerator adds the discrete
// contributions of giant-prone and stuck cells on top of this core before
// rounding.
func (s *RowSampler) SampleDeviation(rng *rand.Rand, counts []int) float64 {
	return s.SampleAgg(rng, s.AggregateRow(counts))
}

// GiantMagnitude returns the current excess, in ADC steps, of a giant-prone
// cell programmed to the given level while it occupies its error state.
func (s *RowSampler) GiantMagnitude(level int) float64 {
	return s.giantMag[level]
}

// PulseFailProbs returns, per cell level, the probability that a single
// programming pulse lands outside the program-verify tolerance and must be
// re-issued by the closed-loop write path. An open-loop pulse lands
// uniformly within +/- ProgErrFrac of the target conductance; the verify
// comparator accepts only landings within ProgVerifyLSB of one conductance
// step, so the miss probability is 1 - tol/pe once the landing zone
// outgrows the tolerance (high levels at fine step spacings). With
// ProgVerifyLSB disabled the result is all zeros — every pulse verifies.
func (s *RowSampler) PulseFailProbs() []float64 {
	p := s.params
	out := make([]float64, p.NumLevels())
	if p.ProgVerifyLSB <= 0 {
		return out
	}
	dg := p.DeltaG()
	for k, g := range p.LevelConductances() {
		pe := p.ProgErrFrac * g / dg
		if pe > p.ProgVerifyLSB {
			out[k] = 1 - p.ProgVerifyLSB/pe
		}
	}
	return out
}

// StepProbs holds the per-read probabilities of small quantization errors:
// P(+1), P(-1), P(>=+2), P(<=-2), indexed to match core.RowErr.StepProb.
type StepProbs [4]float64

// Total returns the probability of any error.
func (sp StepProbs) Total() float64 { return sp[0] + sp[1] + sp[2] + sp[3] }

// PredictStepProbs computes the analytic error probabilities for a row with
// the given active-cell counts, following Section V-B5: the error-free
// current offset (residual after compensation) is compared against the
// quantization boundaries and the crossing probability evaluated with a
// binomial CDF over the RTN cell population.
func (s *RowSampler) PredictStepProbs(counts []int) StepProbs {
	n, sbar, residMean, _, _ := s.aggregate(counts)
	var sp StepProbs
	if n == 0 {
		return sp
	}
	p := s.params.PRTN
	if p <= 0 || sbar <= 0 {
		return sp
	}
	np := float64(n) * p
	scale := sbar * s.invSqrtK
	// dev(m) = (m - np)*sbar/sqrt(K) + residMean.
	// P(dev > t): smallest m crossing t.
	above := func(t float64) float64 {
		m := int(math.Floor(np+(t-residMean)/scale)) + 1
		return stats.BinomSF(m-1, n, p)
	}
	// P(dev < -t): largest m below.
	below := func(t float64) float64 {
		m := int(math.Ceil(np-(t+residMean)/scale)) - 1
		if m < 0 {
			return 0
		}
		return stats.BinomCDF(m, n, p)
	}
	hi1, hi2 := above(0.5), above(1.5)
	lo1, lo2 := below(0.5), below(1.5)
	sp[0] += hi1 - hi2
	sp[1] += lo1 - lo2
	sp[2] += hi2
	sp[3] += lo2
	return sp
}

// StepDistribution computes the full quantized error distribution of one
// row read from its precomputed aggregate: P(rounded deviation = s) for
// s in -maxStep..maxStep, returned as a slice of length 2*maxStep+1 indexed
// by s+maxStep, with the tail mass beyond +/-maxStep folded into the end
// buckets. Unlike PredictStepProbs — a syndrome-ranking heuristic that keeps
// only the binomial RTN crossing — this includes the Gaussian
// programming/thermal core, which dominates at fine cell precisions, and
// resolves magnitudes beyond +/-2, which decide whether an error's syndrome
// is correctable at all. The exact binomial mixture is evaluated term by
// term (each occupancy m shifts the Gaussian mean), so the result matches
// what SampleAgg draws, in distribution, up to rounding.
func (s *RowSampler) StepDistribution(agg RowAgg, maxStep int, out []float64) []float64 {
	width := 2*maxStep + 1
	if cap(out) < width {
		out = make([]float64, width)
	}
	out = out[:width]
	for i := range out {
		out[i] = 0
	}
	p := s.params.PRTN
	scale := agg.Sbar * s.invSqrtK
	// fold adds P(deviation in [s-0.5, s+0.5)) for a Gaussian centered at
	// mu with deviation sigma, weighted by w, clamping s into the range.
	fold := func(mu, w, sigma float64) {
		if w <= 0 {
			return
		}
		if sigma <= 0 {
			st := int(math.Round(mu))
			if st > maxStep {
				st = maxStep
			}
			if st < -maxStep {
				st = -maxStep
			}
			out[st+maxStep] += w
			return
		}
		inv := 1 / (sigma * math.Sqrt2)
		lo := 0.0 // CDF at the lower edge of the current bucket
		for st := -maxStep; st <= maxStep; st++ {
			var hi float64
			if st == maxStep {
				hi = 1
			} else {
				hi = 0.5 * (1 + math.Erf((float64(st)+0.5-mu)*inv))
			}
			out[st+maxStep] += w * (hi - lo)
			lo = hi
		}
	}
	if agg.N == 0 || p <= 0 || scale == 0 {
		fold(agg.Resid, 1, agg.Sigma)
		return out
	}
	np := float64(agg.N) * p
	if np*(1-p) > 9 {
		// CLT fast path: a well-populated binomial is indistinguishable from
		// the Gaussian it converges to at the +/-0.5 bucket resolution, so
		// absorb its variance into one fold instead of enumerating N terms.
		fold(agg.Resid, 1, math.Sqrt(agg.Sigma*agg.Sigma+np*(1-p)*scale*scale))
		return out
	}
	for m := 0; m <= agg.N; m++ {
		w := stats.BinomPMF(m, agg.N, p)
		if w < 1e-14 {
			// The PMF is unimodal: skip the left tail, stop after the right.
			if float64(m) > np {
				break
			}
			continue
		}
		fold(agg.Resid+(float64(m)-np)*scale, w, agg.Sigma)
	}
	// Renormalize the PMF truncation so the buckets sum to one.
	var total float64
	for _, v := range out {
		total += v
	}
	if total > 0 && math.Abs(total-1) > 1e-12 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// discreteJitter is the assumed residual Gaussian jitter (in steps) used to
// blur a discrete error magnitude across the quantization boundaries when
// ranking syndromes: a 1.3-step event sometimes quantizes to 2, and a
// 0.4-step event sometimes crosses into 1.
const discreteJitter = 0.15

// AddDiscrete folds one independent discrete error source into the step
// probabilities: an event of signed step magnitude mag occurring with
// probability p, blurred by the residual read jitter (first-order
// approximation, adequate for syndrome ranking).
func (sp *StepProbs) AddDiscrete(mag float64, p float64) {
	if p <= 0 {
		return
	}
	a := math.Abs(mag)
	if a < 0.2 {
		return
	}
	gt := func(t float64) float64 { // P(a + jitter > t)
		return 0.5 * (1 + math.Erf((a-t)/(discreteJitter*math.Sqrt2)))
	}
	p1 := gt(0.5) - gt(1.5) // quantizes to +/-1
	p2 := gt(1.5)           // quantizes to magnitude >= 2
	if mag >= 0 {
		sp[0] += p * p1
		sp[2] += p * p2
	} else {
		sp[1] += p * p1
		sp[3] += p * p2
	}
}

// GiantCell is one member of the giant-RTN-prone population: a fixed,
// characterizable defect of the fabricated array.
type GiantCell struct {
	Row, Col int
	// Neg is true for the minority of cells whose error state decreases
	// the current.
	Neg bool
}

// SampleCells draws the indices of cells hit by an independent
// per-cell event of probability p over a population of n cells, in
// ascending order, using geometric skipping (jump straight between hits
// instead of flipping a coin per cell). It is the shared sampler behind
// stuck-at, giant-RTN, and lifetime fault injection; identical (rng, n, p)
// inputs reproduce identical hit sets.
func SampleCells(rng *rand.Rand, n int, p float64) []int {
	if p <= 0 || n <= 0 {
		return nil
	}
	if p >= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	idx := -1
	lnq := math.Log1p(-p)
	for {
		u := rng.Float64()
		skip := int(math.Floor(math.Log(1-u) / lnq))
		idx += skip + 1
		if idx >= n || idx < 0 {
			return out
		}
		out = append(out, idx)
	}
}

// InjectGiantProne draws the giant-RTN-prone population for a rows x cols
// array, analogous to InjectStuck: each cell is prone independently with
// p.GiantProneProb, with sign split per GiantHighFrac. The skip and sign
// draws stay interleaved exactly as released — recorded experiment seeds
// must keep reproducing — so this does not share SampleCells.
func InjectGiantProne(rng *rand.Rand, rows, cols int, p DeviceParams) []GiantCell {
	if p.GiantProneProb <= 0 {
		return nil
	}
	var out []GiantCell
	total := rows * cols
	idx := -1
	lnq := math.Log1p(-p.GiantProneProb)
	for {
		u := rng.Float64()
		skip := int(math.Floor(math.Log(1-u) / lnq))
		idx += skip + 1
		if idx >= total {
			return out
		}
		out = append(out, GiantCell{
			Row: idx / cols,
			Col: idx % cols,
			Neg: rng.Float64() >= p.GiantHighFrac,
		})
	}
}

// StuckCell records a hard fault: the cell at (Row, Col) reads as Level
// regardless of what is programmed (yield or endurance failure,
// Section II-C5/6).
type StuckCell struct {
	Row, Col int
	Level    uint8
}

// InjectStuck draws the stuck-at fault population for a rows x cols array:
// each cell fails independently with p.FailureRate and sticks at a uniform
// random level.
func InjectStuck(rng *rand.Rand, rows, cols int, p DeviceParams) []StuckCell {
	if p.FailureRate <= 0 {
		return nil
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("noise: invalid params: %v", err))
	}
	var out []StuckCell
	k := p.NumLevels()
	// Geometric skipping: jump straight between failures instead of
	// flipping a coin per cell.
	total := rows * cols
	idx := -1
	lnq := math.Log1p(-p.FailureRate)
	for {
		u := rng.Float64()
		skip := int(math.Floor(math.Log(1-u) / lnq))
		idx += skip + 1
		if idx >= total {
			return out
		}
		out = append(out, StuckCell{
			Row:   idx / cols,
			Col:   idx % cols,
			Level: uint8(rng.IntN(k)),
		})
	}
}
