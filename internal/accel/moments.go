package accel

import (
	"math"
	"math/big"

	"repro/internal/core"
)

// LayerMoments is the analytic single-pass error model of one mapped matrix:
// the expected squared accumulator error per output element and the ECU
// outcome rates, derived by enumerating every error event the noise model
// can produce (transient RTN steps, giant-RTN flickers, uncharacterized
// stuck cells) and classifying each one through the group's actual code —
// residue lookup, B check, plausibility bound, retry policy — instead of
// Monte-Carlo sampling it. This is the MemSE-style moment source the
// internal/predict propagator feeds through the network.
type LayerMoments struct {
	// VarAcc is the expected squared error of the digital accumulator per
	// output element (mean over output rows), in pre-dequantization integer
	// units. Multiply by (WeightScale * input quantization scale)^2 to get
	// output-unit variance for one MVM.
	VarAcc float64
	// WeightScale is the layer's weight quantization scale.
	WeightScale float64
	// PDetect is the predicted probability that a group read ends in a
	// final detected-uncorrectable status after retries — directly
	// comparable to the rates fault.Monitor measures in deployment.
	PDetect float64
	// PCorrect is the predicted per-group-read corrected rate, true
	// corrections and plausible miscorrections combined (the ECU cannot
	// tell them apart, and neither can the monitor).
	PCorrect float64
	// GroupReadsPerMVM is the ECU-visible group reads one inference
	// through this matrix performs (groups x input bit planes).
	GroupReadsPerMVM int
}

// eventOutcome classifies one additive error event under a group's code.
type eventOutcome int

const (
	// outcomeSilent: the error reaches the lanes unflagged (NoECC, or a
	// multiple of A*B sliding through residue and B checks).
	outcomeSilent eventOutcome = iota
	// outcomeCorrected: the table syndrome exactly cancels the error.
	outcomeCorrected
	// outcomeMiscorrected: an aliased table hit passed the B check and the
	// plausibility bound; the "correction" left a residual error behind.
	outcomeMiscorrected
	// outcomeDetected: flagged but uncorrectable; after retries the ECU
	// reverts and the decoder truncates the raw error into the lanes.
	outcomeDetected
)

// eventClass is the precomputed fate of one error event: its outcome, the
// lane it lands in, and the squared lane-level error it leaves behind.
type eventClass struct {
	outcome eventOutcome
	lane    int
	lamSq   float64 // squared residual lane error for silent/miscorrected
	revSq   float64 // squared residual lane error if finally detected
	revLane int
}

// laneError attributes a quotient-level error magnitude to the lane its
// leading bit falls in and returns the per-lane magnitude, clamped at the
// digital saturation bound maxLane exactly like the read path clamps.
func (g *group) laneError(f float64) (int, float64) {
	if f <= 0 {
		return 0, 0
	}
	laneBits := g.layout.LaneBits()
	lane := 0
	if f >= 1 {
		lane = int(math.Log2(f)) / laneBits
	}
	if lane >= g.layout.Operands {
		lane = g.layout.Operands - 1
	}
	lam := f * math.Ldexp(1, -lane*laneBits)
	if lam > float64(g.maxLane) {
		lam = float64(g.maxLane)
	}
	return lane, lam
}

// wordFloat converts a Word magnitude to float64 (magnitudes here are error
// syndromes, far below the 53-bit mantissa in the common case; larger ones
// only feed a clamped variance bound, where rounding is irrelevant).
func wordFloat(w core.Word) float64 {
	f, _ := new(big.Float).SetInt(w.Big()).Float64()
	return f
}

// classify runs one signed step error at a physical-row bit offset through
// the group's ECU pipeline analytically: residue, table lookup, B detection
// check, plausibility bound, and the revert-and-truncate path.
func (g *group) classify(steps, bitOffset int) eventClass {
	mag := math.Abs(float64(steps))
	fAbs := math.Ldexp(mag, bitOffset)
	if g.code == nil {
		lane, lam := g.laneError(fAbs)
		return eventClass{outcome: outcomeSilent, lane: lane, lamSq: lam * lam}
	}
	a, b, m := g.code.A, g.code.B, g.code.M()
	// The revert path: the decoder divides the raw erroneous word by M and
	// truncates, so the surviving quotient error is |d|/M in the lane the
	// leading bit falls in, clamped by digital saturation. Every outcome
	// carries it — even an alone-correctable event ends up reverted raw
	// when the read is flagged through a co-occurring error.
	revLane, rev := g.laneError(fAbs / float64(m))
	revSq := rev * rev
	detected := eventClass{outcome: outcomeDetected, revLane: revLane, revSq: revSq}
	syn := core.SyndromeFromSteps(steps, bitOffset)
	rho := syn.Residue(a)
	if rho == 0 {
		if b > 1 && syn.Mag.ModU64(b) != 0 {
			return detected
		}
		// Multiple of A*B: invisible to both checks, decodes to a clean
		// quotient error — the silent escape.
		lane, lam := g.laneError(fAbs / float64(m))
		return eventClass{outcome: outcomeSilent, lane: lane, lamSq: lam * lam, revLane: revLane, revSq: revSq}
	}
	if g.code.Table == nil {
		return detected
	}
	s, ok := g.code.Table.Lookup(rho)
	if !ok {
		return detected
	}
	resid := syn.AddTo(core.Syndrome{Neg: !s.Neg, Mag: s.Mag})
	if resid.IsZero() {
		return eventClass{outcome: outcomeCorrected, revLane: revLane, revSq: revSq}
	}
	if b > 1 && resid.Mag.ModU64(b) != 0 {
		return detected
	}
	// The residual is a multiple of A (both error and syndrome share the
	// residue) and of B (check passed), so it decodes to a clean quotient
	// shift. The plausibility bound rejects it when the per-lane shift
	// alone exceeds the reachable partial-sum range.
	f := wordFloat(resid.Mag) / float64(m)
	laneBits := g.layout.LaneBits()
	lane := 0
	if f >= 1 {
		lane = int(math.Log2(f)) / laneBits
	}
	if lane >= g.layout.Operands {
		lane = g.layout.Operands - 1
	}
	lam := f * math.Ldexp(1, -lane*laneBits)
	if lam > float64(g.maxLane) {
		return detected
	}
	return eventClass{outcome: outcomeMiscorrected, lane: lane, lamSq: lam * lam, revLane: revLane, revSq: revSq}
}

// clampProb clamps a probability to [0, 1] against float cancellation.
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// safeDiv divides guarding against a vanishing denominator.
func safeDiv(num, den float64) float64 {
	if den < 1e-12 {
		return 0
	}
	return num / den
}

// event is one possible error of a (group, row, bit plane) read, tied to the
// source (row draw, giant cell, or stuck cell) that produces it.
type event struct {
	p          float64 // per-attempt occurrence probability
	persistent bool    // recurs identically on every retry (stuck cells)
	src        int     // index into the read's source list
	cls        eventClass
}

// source is one independent error generator within a read: a row's noisy
// conversion (whose step outcomes are mutually exclusive), one giant-prone
// cell, or one stuck cell.
type source struct {
	pAny       float64 // probability the source produces any error
	pDet       float64 // probability it produces a detected-classified error
	persistent bool
}

// maxMomentStep bounds the per-row step enumeration; deviations beyond it
// are folded into the extreme buckets (their syndromes are uncorrectable
// either way, so only the clamped revert magnitude is approximated).
const maxMomentStep = 16

// momentWidth is the step-distribution bucket count.
const momentWidth = 2*maxMomentStep + 1

// momentZeros grows the per-read distribution arena without a per-call
// allocation.
var momentZeros [momentWidth]float64

// ghNodes is the 5-point Gauss-Hermite rule, weights normalized by sqrt(pi),
// used to integrate over a row's frozen activity-pattern residual: state j
// places the residual mean at Resid + sqrt(2)*residSD*x_j with weight w_j.
var ghNodes = [5]struct{ x, w float64 }{
	{-2.0201828704560856, 0.011257411327720688},
	{-0.9585724646138185, 0.22207592200561263},
	{0, 0.5333333333333333},
	{0.9585724646138185, 0.22207592200561263},
	{2.0201828704560856, 0.011257411327720688},
}

// Moments computes the analytic error moments of this mapped matrix under
// the given per-bit-plane input activity (alphas[b] is the fraction of
// columns driven in input bit plane b, len = InputBits; nil means the
// balanced-input default of 0.5 everywhere). The model enumerates the error
// events of every (group, row, bit plane) — the full quantized step
// distribution of each row's noisy conversion, giant-RTN flickers, and
// uncharacterized stuck cells — classifies each through the group's real
// code and table, and composes per-read outcome probabilities with the
// retry policy. Three persistence classes matter:
//
//   - Stuck cells repeat identically on every attempt; retries cannot
//     clear them (persistent sources).
//   - A row's noisy conversion redraws its Gaussian/RTN part per attempt,
//     but the activity pattern — which columns are driven — is frozen for
//     the whole read, so the pattern-dependent residual shift persists
//     across retries. Each row is therefore integrated over Gauss-Hermite
//     activity states: within state j the row errs i.i.d. per attempt and
//     survives all Retries+1 attempts flagged with probability q_j^(R+1).
//     Without the states, rows whose mean-activity shift sits inside the
//     rounding window would never detect — detection is a threshold
//     phenomenon, and evaluating it at the mean hides the coded-scheme
//     collapse at fine cell precisions (Jensen's gap).
//   - Giant-RTN flickers redraw fully per attempt (transient sources).
//
// Reads where two or more sources err simultaneously are treated as
// detected (their combined syndromes are outside every table), and any
// read that ends flagged reverts: the decoder truncation turns every
// co-occurring raw error — even alone-correctable ones — into lane
// garbage.
func (m *MappedMatrix) Moments(alphas []float64) LayerMoments {
	planes := m.cfg.InputBits
	if len(alphas) == 0 {
		alphas = make([]float64, planes)
		for i := range alphas {
			alphas[i] = 0.5
		}
	}
	internalOut := m.outDim
	if m.cfg.Encoding == EncodingDifferential {
		internalOut = 2 * m.outDim
	}
	varAcc := make([]float64, internalOut)
	flicker := m.cfg.Device.GiantFlickerProb
	rp1 := float64(m.cfg.Retries + 1)
	prtn := m.sampler.Params().PRTN
	var pDetSum, pCorrSum float64
	groupReads := 0

	// Per-read scratch, reused across (group, plane) iterations.
	type rowState struct {
		w, q float64 // state weight, per-attempt detect probability
		base int     // step-distribution offset into stArena
	}
	type rowInfo struct {
		row, off   int
		detFinal   float64 // P(row keeps the read flagged through all attempts)
		stateBase  int
		stateCount int
	}
	var (
		stArena   []float64
		events    []event
		sources   []source
		rowStates []rowState
		rowInfos  []rowInfo
		rowAnys   []float64
		clsCache  []eventClass
		clsSeen   []bool
		hist      []int
	)

	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			rows := g.arr.Rows
			// The classification of a (row, step) pair is plane- and
			// state-independent, so cache it per group across the whole
			// plane x activity-state sweep. Slots cover |step| <= 31; the
			// rare larger giant magnitudes classify directly.
			need := rows * 64
			if cap(clsCache) < need {
				clsCache = make([]eventClass, need)
				clsSeen = make([]bool, need)
			}
			clsCache, clsSeen = clsCache[:need], clsSeen[:need]
			for i := range clsSeen {
				clsSeen[i] = false
			}
			classify := func(r, step, off int) eventClass {
				if step < -31 || step > 31 {
					return g.classify(step, off)
				}
				idx := r*64 + step + 32
				if !clsSeen[idx] {
					clsCache[idx] = g.classify(step, off)
					clsSeen[idx] = true
				}
				return clsCache[idx]
			}
			for b := 0; b < planes && b < len(alphas); b++ {
				alpha := alphas[b]
				groupReads++
				if alpha <= 0 {
					continue // no driven columns, no error sources
				}
				events = events[:0]
				sources = sources[:0]
				rowStates = rowStates[:0]
				rowInfos = rowInfos[:0]
				rowAnys = rowAnys[:0]
				stArena = stArena[:0]
				prodRowKeep, prodRowAny := 1.0, 1.0
				for r := 0; r < rows; r++ {
					hist = g.arr.HistogramInto(hist, r)
					off := r * g.arr.BitsPerCell
					agg, residSD := m.sampler.AggregateActivity(hist, alpha)
					// Cheap reachability bound: if the whole deviation
					// distribution — including the activity-pattern
					// spread — sits inside the +/-0.5 rounding window,
					// the row cannot err.
					spread := agg.Sigma + residSD
					if agg.N > 0 {
						spread += math.Sqrt(float64(agg.N)*prtn*(1-prtn)) * agg.Sbar
					}
					if math.Abs(agg.Resid)+8*spread >= 0.5 {
						ri := rowInfo{row: r, off: off, stateBase: len(rowStates)}
						var anyMean float64
						for j := range ghNodes {
							wj := ghNodes[j].w
							aggJ := agg
							aggJ.Resid = agg.Resid + math.Sqrt2*residSD*ghNodes[j].x
							if residSD <= 1e-12 {
								if j != 2 {
									continue // degenerate: single mean state
								}
								wj = 1
							}
							base := len(stArena)
							stArena = append(stArena, momentZeros[:]...)
							m.sampler.StepDistribution(aggJ, maxMomentStep, stArena[base:base+momentWidth])
							var qj, anyj float64
							for st := -maxMomentStep; st <= maxMomentStep; st++ {
								q := stArena[base+st+maxMomentStep]
								if st == 0 || q < 1e-12 {
									continue
								}
								anyj += q
								if classify(r, st, off).outcome == outcomeDetected {
									qj += q
								}
							}
							rowStates = append(rowStates, rowState{w: wj, q: qj, base: base})
							anyMean += wj * anyj
							ri.detFinal += wj * math.Pow(qj, rp1)
						}
						ri.stateCount = len(rowStates) - ri.stateBase
						if anyMean > 1e-15 {
							rowInfos = append(rowInfos, ri)
							rowAnys = append(rowAnys, anyMean)
							prodRowKeep *= 1 - ri.detFinal
							prodRowAny *= 1 - anyMean
						} else {
							rowStates = rowStates[:ri.stateBase]
						}
					}
					for _, gi := range g.giant.row(r) {
						stp := int(math.Round(gi.mag))
						if stp == 0 {
							continue
						}
						p := alpha * flicker
						cls := classify(r, stp, off)
						src := source{pAny: p}
						if cls.outcome == outcomeDetected {
							src.pDet = p
						}
						events = append(events, event{p: p, src: len(sources), cls: cls})
						sources = append(sources, src)
					}
					for _, si := range g.stuck.row(r) {
						cls := classify(r, si.delta, off)
						src := source{pAny: alpha, persistent: true}
						if cls.outcome == outcomeDetected {
							src.pDet = alpha
						}
						events = append(events, event{p: alpha, persistent: true, src: len(sources), cls: cls})
						sources = append(sources, src)
					}
				}
				if len(events) == 0 && len(rowInfos) == 0 {
					continue
				}

				if g.code == nil {
					// No ECU: nothing is flagged, retried, or reverted —
					// every error event lands silently with its own lane
					// error, and independent variances simply add.
					wNoECC := math.Ldexp(1, 2*b)
					for _, ri := range rowInfos {
						for _, st := range rowStates[ri.stateBase : ri.stateBase+ri.stateCount] {
							for sp := -maxMomentStep; sp <= maxMomentStep; sp++ {
								q := stArena[st.base+sp+maxMomentStep]
								if sp == 0 || q < 1e-12 {
									continue
								}
								cls := classify(ri.row, sp, ri.off)
								varAcc[g.outRows[cls.lane]] += st.w * q * cls.lamSq * wNoECC
							}
						}
					}
					for _, e := range events {
						varAcc[g.outRows[e.cls.lane]] += e.p * e.cls.lamSq * wNoECC
					}
					continue
				}

				// Per-attempt detection: a read is flagged when any source
				// produces a detected-classified error, or when two or
				// more sources err at once (combined syndromes are outside
				// every table). Decompose the flag probability by
				// persistence: stuck-only causes repeat every attempt
				// (pStuckBad), row causes persist through their frozen
				// activity state (prodRowKeep is already final over the
				// retries), and the transient remainder — detected giants
				// plus any cross-source multi — redraws per attempt
				// (qTrans).
				p0, p0Persist := 1.0, 1.0
				for _, s := range sources {
					p0 *= 1 - s.pAny
					if s.persistent {
						p0Persist *= 1 - s.pAny
					}
				}
				prodAllAny := p0 * prodRowAny
				var p1All, p1PersistAny, p1okPersist, pGiantSingle float64
				for _, s := range sources {
					keepOthers := safeDiv(prodAllAny, 1-s.pAny)
					p1All += s.pAny * keepOthers
					if s.persistent {
						kp := safeDiv(p0Persist, 1-s.pAny)
						p1PersistAny += s.pAny * kp
						p1okPersist += (s.pAny - s.pDet) * kp
					} else {
						pGiantSingle += s.pDet * keepOthers
					}
				}
				for _, a := range rowAnys {
					p1All += a * safeDiv(prodAllAny, 1-a)
				}
				pStuckBad := clampProb(1 - p0Persist - p1okPersist)
				pMultiAll := clampProb(1 - prodAllAny - p1All)
				pMultiPersist := clampProb(1 - p0Persist - p1PersistAny)
				qTrans := clampProb(pGiantSingle + clampProb(pMultiAll-pMultiPersist))
				finalQTrans := math.Pow(qTrans, rp1)
				retryFactorTrans := 1.0
				if qTrans > 0 && qTrans < 1 {
					retryFactorTrans = (1 - finalQTrans) / (1 - qTrans)
				}
				pDetRead := clampProb(1 - (1-pStuckBad)*prodRowKeep*(1-finalQTrans))
				pDetSum += pDetRead
				// Probability that some transient-or-row cause errs on
				// every attempt — what keeps a read flagged alongside a
				// persistent correctable event.
				pTransFinal := math.Pow(clampProb(1-safeDiv(prodAllAny, p0Persist)), rp1)

				w := math.Ldexp(1, 2*b) // lane errors enter the accumulator as lane<<b
				for _, ri := range rowInfos {
					// Detection through anything but this row, for the
					// revert fate of the row's correctable-alone steps.
					pDetOthers := pDetRead
					if ri.detFinal < 1 {
						pDetOthers = clampProb(1 - (1-pDetRead)/(1-ri.detFinal))
					}
					for _, st := range rowStates[ri.stateBase : ri.stateBase+ri.stateCount] {
						finalQj := math.Pow(st.q, rp1)
						rfj := 1.0
						if st.q > 0 && st.q < 1 {
							rfj = (1 - finalQj) / (1 - st.q)
						}
						condDet := 0.0
						if st.q > 0 {
							condDet = st.w * finalQj / st.q
						}
						for sp := -maxMomentStep; sp <= maxMomentStep; sp++ {
							q := stArena[st.base+sp+maxMomentStep]
							if sp == 0 || q < 1e-12 {
								continue
							}
							cls := classify(ri.row, sp, ri.off)
							switch cls.outcome {
							case outcomeSilent, outcomeMiscorrected:
								pEff := st.w * q * rfj * (1 - pDetRead)
								varAcc[g.outRows[cls.lane]] += pEff * cls.lamSq * w
								if cls.outcome == outcomeMiscorrected {
									pCorrSum += pEff
								}
								varAcc[g.outRows[cls.revLane]] += st.w * q * pDetOthers * cls.revSq * w
							case outcomeCorrected:
								pCorrSum += st.w * q * rfj * (1 - pDetRead)
								varAcc[g.outRows[cls.revLane]] += st.w * q * pDetOthers * cls.revSq * w
							case outcomeDetected:
								// The row kept the read flagged through
								// every attempt; the revert truncation
								// leaves this step's residual in the lane.
								varAcc[g.outRows[cls.revLane]] += condDet * q * cls.revSq * w
							}
						}
					}
				}
				for _, e := range events {
					switch e.cls.outcome {
					case outcomeSilent, outcomeMiscorrected, outcomeCorrected:
						pEff := e.p * (1 - pDetRead)
						if !e.persistent {
							pEff = e.p * retryFactorTrans * (1 - pDetRead)
						}
						switch e.cls.outcome {
						case outcomeCorrected:
							pCorrSum += pEff
						case outcomeMiscorrected:
							pCorrSum += pEff
							varAcc[g.outRows[e.cls.lane]] += pEff * e.cls.lamSq * w
						default:
							varAcc[g.outRows[e.cls.lane]] += pEff * e.cls.lamSq * w
						}
						// A correctable-alone event still reverts when the
						// read ends detected through other sources; its
						// raw error then survives as truncated garbage.
						var pRevert float64
						if e.persistent {
							pOthers := clampProb(1 - safeDiv(p0Persist, 1-sources[e.src].pAny))
							pRevert = e.p * (pOthers + (1-pOthers)*pTransFinal)
						} else {
							pRevert = e.p * pDetRead
						}
						varAcc[g.outRows[e.cls.revLane]] += pRevert * e.cls.revSq * w
					case outcomeDetected:
						// Conditional on the read ending detected, the
						// revert truncation leaves this event's residual.
						var pFinal float64
						if e.persistent {
							pFinal = e.p
						} else if qTrans > 0 {
							share := e.p / qTrans
							if share > 1 {
								share = 1
							}
							pFinal = (1 - pStuckBad) * prodRowKeep * finalQTrans * share
						}
						varAcc[g.outRows[e.cls.revLane]] += pFinal * e.cls.revSq * w
					}
				}
			}
		}
	}

	lm := LayerMoments{WeightScale: m.scale, GroupReadsPerMVM: groupReads}
	if groupReads > 0 {
		lm.PDetect = pDetSum / float64(groupReads)
		lm.PCorrect = pCorrSum / float64(groupReads)
		if lm.PCorrect > 1 {
			lm.PCorrect = 1
		}
	}
	// Differential pairs subtract in the output; their error variances add.
	var total float64
	for _, v := range varAcc {
		total += v
	}
	lm.VarAcc = total / float64(m.outDim)
	return lm
}
