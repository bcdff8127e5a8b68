package core

import (
	"math"
	"math/bits"
	"sort"
)

// RowErr models the error susceptibility of one physical crossbar row for
// data-aware syndrome allocation (paper Section V-B1). BitOffset is the
// arithmetic weight of the row's least significant bit in the reduced
// output (row index times bits-per-cell), and StepProb gives the probability
// of each small quantization error the row can produce.
type RowErr struct {
	BitOffset int
	// StepProb holds P(+1), P(-1), P(+2), P(-2) quantization-step errors.
	StepProb [4]float64
	// Extra lists additional step magnitudes this row can produce (for
	// example the combined excess of multiple characterized giant-RTN
	// cells sharing the row).
	Extra []ExtraStep
}

// ExtraStep is one additional signed step error with its probability.
type ExtraStep struct {
	Steps int
	P     float64
}

// stepForIndex maps a StepProb index to its signed step value.
func stepForIndex(i int) int {
	switch i {
	case 0:
		return 1
	case 1:
		return -1
	case 2:
		return 2
	default:
		return -2
	}
}

// StuckErr models a stuck-at fault (paper Section V-B1): when the faulty
// cell's column is driven, the row output deviates by a fixed number of
// quantization steps with probability PActive (the chance the column is
// active in a given cycle).
type StuckErr struct {
	BitOffset int
	Steps     int
	PActive   float64
}

// DataAwareSpec carries everything needed to build a data-aware table for
// one array: per-row error models, stuck-at faults, and search bounds.
type DataAwareSpec struct {
	Rows  []RowErr
	Stuck []StuckErr
	// MaxCombine bounds the number of rows combined into one syndrome
	// (paper: 4). Zero selects the default.
	MaxCombine int
	// TopRows bounds how many of the most error-prone rows participate in
	// multi-row combinations. Zero selects the default.
	TopRows int
}

const (
	defaultMaxCombine = 4
	defaultTopRows    = 12
	// pruneHarmRatio is the maximum tolerated ratio of silent-miscorrection
	// probability to covered probability for one table entry. Transient
	// (RTN) errors are recoverable once detected — a re-read draws fresh
	// noise — while a silent miscorrection smears garbage through the
	// decode, so a transient entry must be practically alias-free to be
	// worth keeping. Stuck-at entries correct persistent faults that
	// re-reads cannot fix, so they tolerate real collateral.
	pruneHarmRatio      = 1e-3
	pruneHarmRatioStuck = 0.25
	// probFloor discards combinations too improbable to be worth a table
	// entry; the paper stops combining "until the probability of a
	// combination falls outside of the total number of available syndromes".
	probFloor = 1e-15
)

// candidate is one scored error pattern competing for a table entry.
type candidate struct {
	syn   Syndrome
	prob  float64
	score float64 // log2(prob) + MSB bit position (paper Figure 8 weighting)
	stuck bool    // true if the pattern involves a stuck-at fault
}

func scoreOf(prob float64, syn Syndrome) float64 {
	msb := syn.Mag.BitLen() - 1
	return math.Log2(prob) + float64(msb)
}

// buildCandidates enumerates the scored error list of paper Figure 8:
// single-row one- and two-step errors, multi-row combinations drawn from the
// most error-prone rows, and (if present) stuck-at patterns alone and
// combined with single-row RTN errors.
//
// Following Section V-B1, rows are "combined to form 2, 3, and 4 physical
// row combinations until the probability of a combination falls outside of
// the total number of available syndromes": a combination qualifies only if
// its raw probability ranks within the table capacity against the
// single-row errors — otherwise low-probability combinations of
// high-significance rows would flood the capacity-th highest scores and
// displace single-row errors that actually occur. The qualified candidates
// are then ordered by the MSB-weighted score for allocation.
func buildCandidates(spec DataAwareSpec, capacity int) []candidate {
	maxCombine := spec.MaxCombine
	if maxCombine <= 0 {
		maxCombine = defaultMaxCombine
	}
	topRows := spec.TopRows
	if topRows <= 0 {
		topRows = defaultTopRows
	}

	var cands []candidate
	add := func(syn Syndrome, prob float64, stuck bool) {
		if prob < probFloor || syn.IsZero() {
			return
		}
		cands = append(cands, candidate{syn: syn, prob: prob, score: scoreOf(prob, syn), stuck: stuck})
	}

	// Single-row errors, all step sizes.
	var singleProbs []float64
	for _, r := range spec.Rows {
		for i, p := range r.StepProb {
			if p <= 0 {
				continue
			}
			add(SyndromeFromSteps(stepForIndex(i), r.BitOffset), p, false)
			singleProbs = append(singleProbs, p)
		}
		for _, ex := range r.Extra {
			if ex.P <= 0 || ex.Steps == 0 {
				continue
			}
			add(SyndromeFromSteps(ex.Steps, r.BitOffset), ex.P, false)
			singleProbs = append(singleProbs, ex.P)
		}
	}

	// Qualification threshold: a combination must be at least as probable
	// as the capacity-th most probable single-row error.
	qual := probFloor
	if len(singleProbs) > 0 && capacity > 0 {
		sort.Sort(sort.Reverse(sort.Float64Slice(singleProbs)))
		k := min(capacity, len(singleProbs)) - 1
		if singleProbs[k] > qual {
			qual = singleProbs[k]
		}
	}

	// Multi-row combinations over the most susceptible rows, single-step
	// errors with every sign pattern.
	idx := topRowIndices(spec.Rows, topRows)
	if maxCombine >= 2 && len(idx) >= 2 {
		combineRows(spec.Rows, idx, maxCombine, qual, add)
	}

	// Stuck-at pairs: two faults in one group are regularly driven in the
	// same cycle, and their combined syndrome is a persistent pattern a
	// re-read cannot clear.
	for i := range spec.Stuck {
		a := spec.Stuck[i]
		if a.Steps == 0 || a.PActive <= 0 {
			continue
		}
		for j := i + 1; j < len(spec.Stuck); j++ {
			bst := spec.Stuck[j]
			if bst.Steps == 0 || bst.PActive <= 0 {
				continue
			}
			syn := SyndromeFromSteps(a.Steps, a.BitOffset).
				AddTo(SyndromeFromSteps(bst.Steps, bst.BitOffset))
			add(syn, a.PActive*bst.PActive, true)
		}
	}

	// Stuck-at patterns: the fault alone, and combined with each
	// single-row single-step RTN error. A stuck fault is near-certain when
	// driven, so its standalone pattern always qualifies.
	for _, st := range spec.Stuck {
		if st.Steps == 0 || st.PActive <= 0 {
			continue
		}
		base := SyndromeFromSteps(st.Steps, st.BitOffset)
		add(base, st.PActive, true)
		for _, r := range spec.Rows {
			for i := 0; i < 2; i++ { // +/- 1 step only
				p := st.PActive * r.StepProb[i]
				if p < probFloor {
					continue
				}
				add(base.AddTo(SyndromeFromSteps(stepForIndex(i), r.BitOffset)), p, true)
			}
		}
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		// Deterministic tie-break on magnitude then sign.
		c := cands[i].syn.Mag.Cmp(cands[j].syn.Mag)
		if c != 0 {
			return c < 0
		}
		return !cands[i].syn.Neg && cands[j].syn.Neg
	})
	return cands
}

// topRowIndices returns the indices of the n rows with the highest
// single-step error probability, in descending order.
func topRowIndices(rows []RowErr, n int) []int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) float64 { return rows[i].StepProb[0] + rows[i].StepProb[1] }
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := key(idx[a]), key(idx[b])
		if ka != kb {
			return ka > kb
		}
		return idx[a] < idx[b]
	})
	if n < len(idx) {
		idx = idx[:n]
	}
	// Drop rows with no error probability at all.
	out := idx[:0]
	for _, i := range idx {
		if key(i) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// combineRows enumerates 2..maxCombine row subsets of idx with every +/-1
// sign pattern and emits the composed syndromes of the patterns at least as
// probable as qual (which is never below probFloor).
func combineRows(rows []RowErr, idx []int, maxCombine int, qual float64, add func(Syndrome, float64, bool)) {
	var chosen []int
	var rec func(start int)
	rec = func(start int) {
		if len(chosen) >= 2 {
			emitSignPatterns(rows, chosen, qual, add)
		}
		if len(chosen) == maxCombine {
			return
		}
		for i := start; i < len(idx); i++ {
			chosen = append(chosen, idx[i])
			rec(i + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	rec(0)
}

// emitSignPatterns scores every sign pattern of one row subset by
// probability and composes the 256-bit syndrome only for the patterns that
// reach qual. A pattern's probability does not depend on its syndrome, and
// most multi-row patterns fall below qual, so this emits the same
// candidates as composing every syndrome would, for a fraction of the work.
func emitSignPatterns(rows []RowErr, chosen []int, qual float64, add func(Syndrome, float64, bool)) {
	n := len(chosen)
	for pattern := 0; pattern < 1<<n; pattern++ {
		prob := 1.0
		for k, ri := range chosen {
			p := rows[ri].StepProb[(pattern>>k)&1] // bit 0 => +1 step, 1 => -1 step
			if p <= 0 {
				prob = 0
				break
			}
			prob *= p
		}
		if prob < qual {
			continue
		}
		var syn Syndrome
		for k, ri := range chosen {
			step := 1 - 2*((pattern>>k)&1)
			syn = syn.AddTo(SyndromeFromSteps(step, rows[ri].BitOffset))
		}
		add(syn, prob, false)
	}
}

// BuildDataAwareTable constructs the correction table for one array under a
// given A by greedy allocation of the scored candidate list. When stuck-at
// faults are present the capacity is split in half between fault-combined
// and fault-free patterns (paper Section V-B1), which keeps the array usable
// around hard faults at some cost in RTN coverage. The returned table
// records the probability mass it covers, the metric the A-search maximizes.
//
// Beyond the paper's greedy fill, the builder resolves residue collisions in
// favor of the more probable pattern and prunes entries whose expected
// silent-miscorrection harm exceeds their coverage: an entry s at residue r
// silently miscorrects every occurring pattern x with the same residue for
// which (x - s) is divisible by B, so if those patterns are collectively
// more probable than s itself, leaving the residue empty (detect-and-retry)
// loses less accuracy than correcting with s.
func BuildDataAwareTable(a, b uint64, spec DataAwareSpec) *Table {
	return allocate(a, b, buildCandidates(spec, int(a)-1), len(spec.Stuck) > 0)
}

func allocate(a, b uint64, cands []candidate, split bool) *Table {
	capTotal := int(a) - 1
	budgetStuck, budgetPlain := 0, capTotal
	if split {
		budgetStuck = capTotal / 2
		budgetPlain = capTotal - budgetStuck
	}
	// Group candidates by residue; duplicates of one syndrome merge their
	// probability.
	type slotCand struct {
		syn   Syndrome
		prob  float64
		score float64
		stuck bool
	}
	byRes := make(map[uint64][]slotCand)
	order := make([]uint64, 0, len(cands))
	// zeroResStuck accumulates persistent (stuck-at) patterns whose
	// syndrome is divisible by A under this modulus: they are permanently
	// undetectable, the worst possible outcome, and the A search must
	// avoid such moduli.
	var zeroResStuck float64
	for _, c := range cands {
		res := c.syn.Residue(a)
		if res == 0 {
			if c.stuck && (b <= 1 || c.syn.Mag.ModU64(b) == 0) {
				zeroResStuck += c.prob
			}
			continue
		}
		list := byRes[res]
		merged := false
		for i := range list {
			if list[i].syn == c.syn {
				list[i].prob += c.prob
				merged = true
				break
			}
		}
		if !merged {
			if len(list) == 0 {
				order = append(order, res)
			}
			list = append(list, slotCand{syn: c.syn, prob: c.prob, score: c.score, stuck: c.stuck})
		}
		byRes[res] = list
	}
	// Within each residue, the most probable pattern wins the slot (ties
	// broken by score): correcting the pattern that actually occurs
	// minimizes silent miscorrections.
	type chosenEntry struct {
		res uint64
		slotCand
		harm float64
	}
	entries := make([]chosenEntry, 0, len(order))
	for _, res := range order {
		list := byRes[res]
		best := 0
		for i := 1; i < len(list); i++ {
			if list[i].prob > list[best].prob ||
				(list[i].prob == list[best].prob && list[i].score > list[best].score) {
				best = i
			}
		}
		e := chosenEntry{res: res, slotCand: list[best]}
		// Harm: probability mass of same-residue patterns this entry would
		// silently miscorrect (difference divisible by B).
		for i, sc := range list {
			if i == best {
				continue
			}
			diff := sc.syn.AddTo(Syndrome{Neg: !e.syn.Neg, Mag: e.syn.Mag})
			if b <= 1 || diff.Mag.ModU64(b) == 0 {
				e.harm += sc.prob
			}
		}
		// Prune contested slots: a detected error is recoverable (revert,
		// or re-read — RTN is transient), while a silent miscorrection is
		// not, so an entry must clearly dominate its aliases to be worth
		// keeping.
		ratio := pruneHarmRatio
		if e.stuck {
			ratio = pruneHarmRatioStuck
		}
		if e.harm > ratio*e.prob {
			continue
		}
		entries = append(entries, e)
	}
	// Fill the table by the paper's MSB-weighted score, respecting the
	// stuck/plain capacity split.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].score != entries[j].score {
			return entries[i].score > entries[j].score
		}
		return entries[i].res < entries[j].res
	})
	t := NewTable(a)
	usedStuck, usedPlain := 0, 0
	var leftover []chosenEntry
	for _, e := range entries {
		if usedStuck+usedPlain >= capTotal {
			break
		}
		if split {
			if e.stuck && usedStuck >= budgetStuck {
				leftover = append(leftover, e)
				continue
			}
			if !e.stuck && usedPlain >= budgetPlain {
				leftover = append(leftover, e)
				continue
			}
		}
		if t.Add(e.syn) {
			t.coveredProb += e.prob
			if e.stuck {
				usedStuck++
			} else {
				usedPlain++
			}
		}
	}
	// Backfill any remaining capacity from patterns that exceeded their
	// half's budget; better a useful entry than an empty slot.
	for _, e := range leftover {
		if t.Len() >= capTotal {
			break
		}
		if t.Add(e.syn) {
			t.coveredProb += e.prob
		}
	}
	// A permanently undetectable persistent pattern corrupts every read it
	// occurs in; weight it heavily so SearchA steers to a safer modulus.
	t.coveredProb -= 10 * zeroResStuck
	return t
}

// CandidateAs returns every legal A for a check-bit budget: odd values
// coprime to b, at least 3, no larger than (2^checkBits - 1)/b so that A*b
// still fits the budget (paper Section V-B4).
func CandidateAs(checkBits int, b uint64) []uint64 {
	if b < 1 {
		b = 1
	}
	maxA := ((uint64(1) << uint(checkBits)) - 1) / b
	var out []uint64
	for a := uint64(3); a <= maxA; a += 2 {
		if b > 1 && a%b == 0 {
			continue
		}
		out = append(out, a)
	}
	return out
}

// HardwareCandidateAs returns the fixed five-entry candidate set the
// hardware divider supports (paper Section VI): the five largest primes in
// the legal range, which empirically dominate the full search because large
// prime A maximizes both table capacity and residue spread.
func HardwareCandidateAs(checkBits int, b uint64) []uint64 {
	all := CandidateAs(checkBits, b)
	var primes []uint64
	for i := len(all) - 1; i >= 0 && len(primes) < 5; i-- {
		if isPrime(all[i]) {
			primes = append(primes, all[i])
		}
	}
	if len(primes) == 0 && len(all) > 0 {
		primes = append(primes, all[len(all)-1])
	}
	return primes
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	for d := uint64(37); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// SearchA evaluates candidate A values against a data-aware spec and returns
// the code (A, B, table) whose table covers the greatest error probability
// mass (paper Section V-B4). A nil candidates slice searches the full legal
// range for the check-bit budget.
func SearchA(checkBits int, b uint64, spec DataAwareSpec, candidates []uint64) *Code {
	if candidates == nil {
		candidates = CandidateAs(checkBits, b)
	}
	maxA := uint64(0)
	for _, a := range candidates {
		if a > maxA {
			maxA = a
		}
	}
	cands := buildCandidates(spec, int(maxA)-1)
	split := len(spec.Stuck) > 0
	var best *Code
	var bestCovered float64
	for _, a := range candidates {
		t := allocate(a, b, cands, split)
		if best == nil || t.CoveredProb() > bestCovered ||
			(t.CoveredProb() == bestCovered && a > best.A) {
			best = &Code{A: a, B: b, Table: t}
			bestCovered = t.CoveredProb()
		}
	}
	return best
}

// MaxBitOffset returns the highest bit position any candidate syndrome can
// disturb, used by callers to size encoded words. It is the maximum row
// offset plus one step bit.
func (s DataAwareSpec) MaxBitOffset() int {
	m := 0
	for _, r := range s.Rows {
		if r.BitOffset+1 > m {
			m = r.BitOffset + 1
		}
	}
	for _, st := range s.Stuck {
		w := st.BitOffset + bits.Len(uint(abs(st.Steps)))
		if w > m {
			m = w
		}
	}
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
