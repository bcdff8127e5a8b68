package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// uniformRows builds n rows with identical step probabilities at consecutive
// cellBits offsets.
func uniformRows(n, cellBits int, pPlus, pMinus float64) []RowErr {
	rows := make([]RowErr, n)
	for i := range rows {
		rows[i] = RowErr{
			BitOffset: i * cellBits,
			StepProb:  [4]float64{pPlus, pMinus, pPlus * pPlus, pMinus * pMinus},
		}
	}
	return rows
}

func TestBuildCandidatesOrdering(t *testing.T) {
	// Two rows: a high-significance row with moderate probability and a
	// low-significance row with slightly higher probability. The Figure 8
	// MSB weighting must rank the high-significance row first.
	spec := DataAwareSpec{Rows: []RowErr{
		{BitOffset: 0, StepProb: [4]float64{0.02, 0.001, 0, 0}},
		{BitOffset: 20, StepProb: [4]float64{0.01, 0.001, 0, 0}},
	}}
	cands := buildCandidates(spec, 300)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	first := cands[0]
	if first.syn.Mag != Pow2Word(20) || first.syn.Neg {
		t.Fatalf("top candidate should be +2^20, got %v", first.syn)
	}
}

func TestBuildCandidatesIncludesMultiRow(t *testing.T) {
	spec := DataAwareSpec{Rows: uniformRows(6, 2, 0.2, 0.05)}
	cands := buildCandidates(spec, 100)
	foundPair := false
	for _, c := range cands {
		// A pair of +1 steps at offsets 8 and 10 composes to 0b101 << 8.
		if !c.syn.Neg && c.syn.Mag.Low64() == (1<<8)+(1<<10) {
			foundPair = true
			break
		}
	}
	if !foundPair {
		t.Fatal("expected two-row combination among candidates")
	}
}

func TestBuildDataAwareTableCorrectsTopErrors(t *testing.T) {
	spec := DataAwareSpec{Rows: uniformRows(10, 2, 0.1, 0.02)}
	// Let the Section V-B4 search pick A: a hand-picked composite like 341
	// has ord(2)=10 and aliases nearly every single-row error.
	code := SearchA(10, 3, spec, nil)
	if code.Table.Len() == 0 {
		t.Fatal("empty table")
	}
	if code.Table.CoveredProb() <= 0 {
		t.Fatal("no covered probability recorded")
	}
	base, err := code.EncodeU64(50_000)
	if err != nil {
		t.Fatal(err)
	}
	// The most significant rows' errors carry the highest Figure 8 scores,
	// so their +1 patterns are guaranteed table entries. (Low-significance
	// rows may legitimately lose their residues to higher-scoring
	// multi-row combinations — that is the point of the scheme.)
	for _, r := range []int{8, 9} {
		bad, _ := base.Add(Pow2Word(2 * r))
		fixed, status := code.Correct(bad)
		if status != StatusCorrected || fixed != base {
			t.Fatalf("row %d +1 error not corrected (status %v)", r, status)
		}
	}
	// The top row's 2-step error also outranks every multi-row combination.
	bad, _ := base.Add(Pow2Word(19))
	fixed, status := code.Correct(bad)
	if status != StatusCorrected || fixed != base {
		t.Fatalf("row 9 +2 error not corrected (status %v)", status)
	}
}

func TestBuildDataAwareTableSmallACoversHotRow(t *testing.T) {
	// With a tiny A the table can hold few syndromes; a dominant hot row
	// must keep its slot against the background rows that share residues.
	rows := uniformRows(20, 2, 1e-6, 1e-7)
	rows[19].StepProb[0] = 0.3
	tb := BuildDataAwareTable(11, 3, DataAwareSpec{Rows: rows})
	top := SyndromeFromSteps(1, 38)
	got, ok := tb.Lookup(top.Residue(11))
	if !ok || got != top {
		t.Fatalf("hot row error not allocated; got %v ok=%v", got, ok)
	}
	if tb.Len() > tb.Capacity() {
		t.Fatalf("table exceeds capacity: %d/%d", tb.Len(), tb.Capacity())
	}
}

// TestHarmAwarePruneEmptiesHopelessTable: with no detection term and many
// equally probable patterns per residue, correcting is more likely to make
// things worse than to help, and the builder must leave residues empty
// (pure detect-and-retry).
func TestHarmAwarePruneEmptiesHopelessTable(t *testing.T) {
	rows := uniformRows(20, 2, 0.1, 0.1)
	tb := BuildDataAwareTable(11, 1, DataAwareSpec{Rows: rows})
	if tb.Len() != 0 {
		t.Fatalf("hopeless table should be empty, has %d entries", tb.Len())
	}
}

// TestCollisionResolvedByProbability: when two patterns share a residue,
// the more probable one wins the slot even if the rarer one is more
// significant: miscorrecting the frequent pattern would dominate the harm.
func TestCollisionResolvedByProbability(t *testing.T) {
	// Under A=11 (ord(2)=10), -2^0 ≡ 10 and +2^5 = 32 ≡ 10 collide.
	rows := []RowErr{
		{BitOffset: 0, StepProb: [4]float64{0, 0.4, 0, 0}}, // -1 frequent
		{BitOffset: 5, StepProb: [4]float64{1e-5, 0, 0, 0}},
	}
	tb := BuildDataAwareTable(11, 3, DataAwareSpec{Rows: rows})
	want := SyndromeFromSteps(-1, 0)
	got, ok := tb.Lookup(want.Residue(11))
	if !ok || got != want {
		t.Fatalf("frequent pattern must win the residue; got %v ok=%v", got, ok)
	}
}

func TestStuckAtSplitTable(t *testing.T) {
	rows := uniformRows(8, 2, 0.05, 0.01)
	stuck := []StuckErr{{BitOffset: 6, Steps: 2, PActive: 0.5}}
	tb := BuildDataAwareTable(101, 3, DataAwareSpec{Rows: rows, Stuck: stuck})
	// The stuck fault's standalone syndrome (+2 steps at offset 6 = +512)
	// must be correctable: it has probability 0.5, dominating everything.
	syn := SyndromeFromSteps(2, 6)
	got, ok := tb.Lookup(syn.Residue(101))
	if !ok || got != syn {
		t.Fatal("stuck-at syndrome not allocated")
	}
	// Combined stuck + RTN patterns must also appear (residues are shared
	// across the two halves, so check that most of them landed).
	combined := 0
	for r := 0; r < 8; r++ {
		comb := syn.AddTo(SyndromeFromSteps(1, 2*r))
		if got, ok := tb.Lookup(comb.Residue(101)); ok && got == comb {
			combined++
		}
	}
	if combined < 4 {
		t.Fatalf("only %d/8 stuck+RTN combinations allocated", combined)
	}
	// Plain RTN singles must still get entries from their half.
	plain := 0
	for r := 0; r < 8; r++ {
		s := SyndromeFromSteps(1, 2*r)
		if got, ok := tb.Lookup(s.Residue(101)); ok && got == s {
			plain++
		}
	}
	if plain < 4 {
		t.Fatalf("only %d/8 plain RTN syndromes allocated", plain)
	}
}

func TestCandidateAsRange(t *testing.T) {
	as := CandidateAs(7, 3)
	if len(as) == 0 {
		t.Fatal("no candidates")
	}
	maxA := uint64(127) / 3 // 42
	for _, a := range as {
		if a < 3 || a > maxA || a%2 == 0 || a%3 == 0 {
			t.Fatalf("illegal candidate %d", a)
		}
	}
	// Largest legal: 41.
	if as[len(as)-1] != 41 {
		t.Fatalf("largest candidate = %d, want 41", as[len(as)-1])
	}
}

func TestHardwareCandidateAs(t *testing.T) {
	as := HardwareCandidateAs(10, 3)
	if len(as) != 5 {
		t.Fatalf("want 5 hardware candidates, got %d", len(as))
	}
	for _, a := range as {
		if !isPrime(a) || a*3 > 1023 {
			t.Fatalf("bad hardware candidate %d", a)
		}
	}
	// Largest prime <= 341 not divisible by 3: 337.
	if as[0] != 337 {
		t.Fatalf("first candidate = %d, want 337", as[0])
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 13, 37, 41, 79, 337, 1009}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("%d should be prime", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 21, 39, 49, 91, 339, 341}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("%d should be composite", c)
		}
	}
}

func TestSearchAPicksHighCoverage(t *testing.T) {
	spec := DataAwareSpec{Rows: uniformRows(12, 2, 0.08, 0.02)}
	full := SearchA(8, 3, spec, nil)
	if full == nil {
		t.Fatal("no code found")
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if full.CheckBits() > 8 {
		t.Fatalf("check bits %d exceed budget", full.CheckBits())
	}
	// The chosen A must cover at least as much probability as a mid-range
	// alternative.
	alt := BuildDataAwareTable(19, 3, spec)
	if full.Table.CoveredProb() < alt.CoveredProb() {
		t.Fatalf("search result covers %g < alternative %g", full.Table.CoveredProb(), alt.CoveredProb())
	}
}

func TestSearchAHardwareModeCloseToFull(t *testing.T) {
	spec := DataAwareSpec{Rows: uniformRows(16, 2, 0.06, 0.01)}
	full := SearchA(9, 3, spec, nil)
	hw := SearchA(9, 3, spec, HardwareCandidateAs(9, 3))
	if hw.Table.CoveredProb() < 0.8*full.Table.CoveredProb() {
		t.Fatalf("hardware candidates cover %g, full search %g: gap too large",
			hw.Table.CoveredProb(), full.Table.CoveredProb())
	}
}

func TestDataAwareSpecMaxBitOffset(t *testing.T) {
	spec := DataAwareSpec{
		Rows:  []RowErr{{BitOffset: 10}, {BitOffset: 30}},
		Stuck: []StuckErr{{BitOffset: 28, Steps: 3}},
	}
	if got := spec.MaxBitOffset(); got != 31 {
		t.Fatalf("MaxBitOffset = %d, want 31", got)
	}
}

func TestStepForIndex(t *testing.T) {
	want := []int{1, -1, 2, -2}
	for i, w := range want {
		if got := stepForIndex(i); got != w {
			t.Errorf("stepForIndex(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestTopRowIndicesDropsZeroRows(t *testing.T) {
	rows := []RowErr{
		{BitOffset: 0, StepProb: [4]float64{0, 0, 0, 0}},
		{BitOffset: 2, StepProb: [4]float64{0.5, 0, 0, 0}},
		{BitOffset: 4, StepProb: [4]float64{0.3, 0.1, 0, 0}},
	}
	idx := topRowIndices(rows, 3)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 2 {
		t.Fatalf("topRowIndices = %v", idx)
	}
}

// TestDataAwareInvariantsQuick: for randomized susceptibility profiles the
// builder must respect capacity, keep residues unique and nonzero, never
// claim more coverage than the candidate mass, and produce tables whose
// every entry actually corrects its own syndrome.
func TestDataAwareInvariantsQuick(t *testing.T) {
	f := func(seed uint64, aRaw uint16, nRows uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		rows := make([]RowErr, int(nRows%40)+2)
		total := 0.0
		for i := range rows {
			p := rng.Float64() * rng.Float64() * 0.1
			rows[i] = RowErr{BitOffset: 2 * i, StepProb: [4]float64{p, p / 4, p / 10, p / 50}}
			total += p + p/4 + p/10 + p/50
		}
		a := uint64(aRaw%300)*2 + 5
		if a%3 == 0 {
			a += 2
		}
		tb := BuildDataAwareTable(a, 3, DataAwareSpec{Rows: rows})
		if tb.Len() > tb.Capacity() {
			return false
		}
		// Coverage cannot exceed the total candidate probability mass by
		// more than the multi-row combination mass (bounded by total^2).
		if tb.CoveredProb() > total+total*total {
			return false
		}
		code := &Code{A: a, B: 3, Table: tb}
		base, err := code.EncodeU64(1 << 20)
		if err != nil {
			return false
		}
		for _, syn := range tb.Syndromes() {
			bad, ok := (Syndrome{Neg: !syn.Neg, Mag: syn.Mag}).ApplyTo(base)
			if !ok {
				continue // would underflow; skip
			}
			fixed, status := code.Correct(bad)
			if status != StatusCorrected || fixed != base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refBuildCandidates is the compose-then-filter candidate enumerator that
// buildCandidates replaced: it builds the syndrome of every multi-row sign
// pattern and only then drops the ones below the qualification threshold.
// buildCandidates must reproduce its output element for element.
func refBuildCandidates(spec DataAwareSpec, capacity int) []candidate {
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
	qual := probFloor
	if len(singleProbs) > 0 && capacity > 0 {
		sort.Sort(sort.Reverse(sort.Float64Slice(singleProbs)))
		if k := min(capacity, len(singleProbs)) - 1; singleProbs[k] > qual {
			qual = singleProbs[k]
		}
	}
	idx := topRowIndices(spec.Rows, topRows)
	if maxCombine >= 2 && len(idx) >= 2 {
		var chosen []int
		var rec func(start int)
		rec = func(start int) {
			if len(chosen) >= 2 {
				for pattern := 0; pattern < 1<<len(chosen); pattern++ {
					prob := 1.0
					var syn Syndrome
					for k, ri := range chosen {
						signIdx := (pattern >> k) & 1
						p := spec.Rows[ri].StepProb[signIdx]
						if p <= 0 {
							prob = 0
							break
						}
						prob *= p
						step := 1
						if signIdx == 1 {
							step = -1
						}
						syn = syn.AddTo(SyndromeFromSteps(step, spec.Rows[ri].BitOffset))
					}
					if prob < probFloor || prob < qual {
						continue
					}
					add(syn, prob, false)
				}
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
			add(SyndromeFromSteps(a.Steps, a.BitOffset).AddTo(SyndromeFromSteps(bst.Steps, bst.BitOffset)),
				a.PActive*bst.PActive, true)
		}
	}
	for _, st := range spec.Stuck {
		if st.Steps == 0 || st.PActive <= 0 {
			continue
		}
		base := SyndromeFromSteps(st.Steps, st.BitOffset)
		add(base, st.PActive, true)
		for _, r := range spec.Rows {
			for i := 0; i < 2; i++ {
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
		c := cands[i].syn.Mag.Cmp(cands[j].syn.Mag)
		if c != 0 {
			return c < 0
		}
		return !cands[i].syn.Neg && cands[j].syn.Neg
	})
	return cands
}

// randomDataAwareSpec draws a susceptibility profile that exercises every
// branch of the enumerator: rows with zero (or partly zero) probability,
// Extra steps, stuck faults (including zero-step and inactive ones, and
// pairs), and non-default TopRows/MaxCombine.
func randomDataAwareSpec(rng *rand.Rand) DataAwareSpec {
	cell := 1 + rng.IntN(3)
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*rng.Float64()) }
	var spec DataAwareSpec
	for r := 0; r < 2+rng.IntN(50); r++ {
		row := RowErr{BitOffset: r * cell}
		switch rng.IntN(6) {
		case 0: // clean row
		case 1: // one-sided row
			row.StepProb[rng.IntN(2)] = logU(-9, -1)
		default:
			for i := range row.StepProb {
				if rng.IntN(5) > 0 {
					row.StepProb[i] = logU(-10, -1.5) / float64(i+1)
				}
			}
		}
		for e := rng.IntN(4) - 1; e > 0; e-- {
			steps := (3 + rng.IntN(6)) * (1 - 2*rng.IntN(2))
			if rng.IntN(8) == 0 {
				steps = 0
			}
			row.Extra = append(row.Extra, ExtraStep{Steps: steps, P: logU(-8, -2)})
		}
		spec.Rows = append(spec.Rows, row)
	}
	for s := rng.IntN(6) - 1; s > 0; s-- {
		st := StuckErr{
			BitOffset: rng.IntN(len(spec.Rows)) * cell,
			Steps:     rng.IntN(7) - 3,
			PActive:   0.5,
		}
		if rng.IntN(6) == 0 {
			st.PActive = 0
		}
		spec.Stuck = append(spec.Stuck, st)
	}
	if rng.IntN(2) == 0 {
		spec.TopRows = 1 + rng.IntN(16)
	}
	if rng.IntN(2) == 0 {
		spec.MaxCombine = 1 + rng.IntN(5)
	}
	return spec
}

// TestBuildCandidatesMatchesComposeThenFilter is the differential test of
// the probability-first enumerator against the reference that composes
// every sign pattern's syndrome before filtering: identical candidate
// slices, and identical tables for several A, over random specs.
func TestBuildCandidatesMatchesComposeThenFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	as := []uint64{5, 17, 101, 167, 337}
	for trial := 0; trial < 240; trial++ {
		spec := randomDataAwareSpec(rng)
		for _, capacity := range []int{0, 4, 100, 336} {
			got, want := buildCandidates(spec, capacity), refBuildCandidates(spec, capacity)
			if len(got) != len(want) {
				t.Fatalf("trial %d capacity %d: %d candidates, reference %d", trial, capacity, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d capacity %d: candidate %d = %+v, reference %+v", trial, capacity, i, got[i], want[i])
				}
			}
		}
		for _, a := range as {
			got := BuildDataAwareTable(a, 3, spec)
			want := allocate(a, 3, refBuildCandidates(spec, int(a)-1), len(spec.Stuck) > 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d A=%d: table differs from the reference (covered %v vs %v)",
					trial, a, got.CoveredProb(), want.CoveredProb())
			}
		}
	}
}
