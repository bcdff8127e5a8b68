// Package crossbar models the memristive crossbar substrate of the
// accelerators the paper protects (Section II-B): multi-level cell arrays,
// bit slicing of wide operands across physical rows (Figure 2), bit-serial
// input application, and the shift-and-add reduction trees that reassemble
// full-precision dot products (Figure 1).
//
// The representation is optimized for the Monte-Carlo hot path: each
// physical row keeps one bitmask per conductance level, so the active-cell
// population under an input mask — the quantity both the ideal ADC output
// and the noise model need — is a handful of AND+popcount operations.
package crossbar

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// DefaultSize is the array dimension the paper evaluates (128x128).
const DefaultSize = 128

// Array is one physical crossbar: Rows word lines by Cols bit lines of
// cells programmable to 2^BitsPerCell conductance levels, plus an optional
// bank of spare word lines the scrubber can retire worn rows onto.
//
// The array distinguishes the *programmed* level (what the write circuitry
// targeted) from the *effective* level (the conductance a read actually
// sees). The two diverge under lifetime faults: a stuck-at cell pins its
// effective level regardless of programming, and conductance drift walks
// the effective level away from the target until the cell is rewritten.
// All read-path queries (masks, histograms, outputs) observe effective
// levels.
//
// Rows is the logical row count. Internally the array holds Rows + spares
// physical word lines; a row-remap table translates logical row addresses
// to physical ones, so after SpareRow retires a worn word line every
// read-path query (ActiveCounts, IdealRowOutput, Level, ...) transparently
// lands on the replacement.
//
// Every per-line structure lives in one flat, pointer-free slab per array
// indexed by physical line, so an array is a fixed handful of heap objects
// whatever its size and the garbage collector never scans its cells.
type Array struct {
	Rows, Cols, BitsPerCell int

	words int // words per row mask
	// lineWords is the mask slab's stride per physical line:
	// 2*(NumLevels-1)*words.
	lineWords int
	// cells holds each physical line's programmed levels followed by its
	// effective levels: line p's cell c is programmed at cells[2*p*Cols+c]
	// and effective at cells[(2*p+1)*Cols+c].
	cells []uint8
	// masks holds, per physical line, one words-long mask per nonzero
	// effective level and then one per nonzero programmed level: bit c of
	// the mask is set iff cell (p, c) sits at that level. Level 0 carries
	// no signal and has no mask. The programmed masks let the scrub
	// probe's expected-output query (ProgrammedRowOutput) walk words like
	// the effective-level readers instead of scanning cells. A line's level
	// histogram is the popcount of its effective masks, so none is stored.
	masks []uint64
	// present is a fixed-stride present-level table: slot p*NumLevels holds
	// how many nonzero effective levels line p contains, and the following
	// slots list them in ascending order, so per-row reads and aggregates
	// iterate only levels that exist instead of all 2^BitsPerCell.
	present []uint8
	// stuck maps phys*Cols+c to the pinned level of a stuck-at cell.
	stuck map[int]uint8
	// rowMap[r] is the physical word line backing logical row r.
	rowMap []int
	// spareFree lists unused spare word lines in ascending order; SpareRow
	// consumes from the front so repairs are deterministic.
	spareFree []int
	// spared counts rows retired onto spares over the array's lifetime.
	spared int
	// drifted is the incrementally-maintained count of healthy (non-stuck)
	// cells whose effective level differs from the programmed target —
	// DriftedCount would otherwise be an O(rows*cols) scan on the scrub and
	// metrics path.
	drifted int
}

// NewArray allocates a zeroed (all cells at level 0) array with no spares.
func NewArray(rows, cols, bitsPerCell int) *Array {
	return NewArrayWithSpares(rows, cols, bitsPerCell, 0)
}

// NewArrayWithSpares allocates a zeroed array carrying the given number of
// spare word lines for row sparing.
func NewArrayWithSpares(rows, cols, bitsPerCell, spares int) *Array {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("crossbar: invalid dimensions %dx%d", rows, cols))
	}
	if bitsPerCell < 1 || bitsPerCell > 8 {
		panic(fmt.Sprintf("crossbar: bits per cell %d out of range [1,8]", bitsPerCell))
	}
	if spares < 0 {
		panic(fmt.Sprintf("crossbar: negative spare count %d", spares))
	}
	k := 1 << bitsPerCell
	words := (cols + 63) / 64
	phys := rows + spares
	a := &Array{
		Rows: rows, Cols: cols, BitsPerCell: bitsPerCell,
		words:     words,
		lineWords: 2 * (k - 1) * words,
		cells:     make([]uint8, 2*phys*cols),
		masks:     make([]uint64, phys*2*(k-1)*words),
		present:   make([]uint8, phys*k),
		rowMap:    make([]int, rows),
	}
	for r := range a.rowMap {
		a.rowMap[r] = r
	}
	if spares > 0 {
		a.spareFree = make([]int, spares)
		for i := range a.spareFree {
			a.spareFree[i] = rows + i
		}
	}
	return a
}

// NumLevels returns the number of programmable levels per cell.
func (a *Array) NumLevels() int { return 1 << a.BitsPerCell }

// MaskWords returns the number of 64-bit words in an input mask for this
// array.
func (a *Array) MaskWords() int { return a.words }

// physRows is the physical word-line count, spares included.
func (a *Array) physRows() int { return len(a.cells) / (2 * a.Cols) }

// progCells is physical line p's programmed levels.
func (a *Array) progCells(p int) []uint8 {
	o := 2 * p * a.Cols
	return a.cells[o : o+a.Cols : o+a.Cols]
}

// effCells is physical line p's effective levels.
func (a *Array) effCells(p int) []uint8 {
	o := (2*p + 1) * a.Cols
	return a.cells[o : o+a.Cols : o+a.Cols]
}

// effMask is physical line p's mask of cells effectively at level l > 0.
func (a *Array) effMask(p int, l uint8) []uint64 {
	o := p*a.lineWords + (int(l)-1)*a.words
	return a.masks[o : o+a.words : o+a.words]
}

// progMask is physical line p's mask of cells programmed to level l > 0.
func (a *Array) progMask(p int, l uint8) []uint64 {
	o := p*a.lineWords + (a.NumLevels()+int(l)-2)*a.words
	return a.masks[o : o+a.words : o+a.words]
}

// levelSlot is physical line p's present-level list, with capacity for
// every nonzero level so it grows in place.
func (a *Array) levelSlot(p int) []uint8 {
	o := p * a.NumLevels()
	return a.present[o+1 : o+1+int(a.present[o]) : o+a.NumLevels()]
}

// cellDrifted is cell (p, c)'s contribution to the drifted counter.
func (a *Array) cellDrifted(p, c int) int {
	if a.effCells(p)[c] == a.progCells(p)[c] {
		return 0
	}
	if _, pinned := a.stuck[p*a.Cols+c]; pinned {
		return 0
	}
	return 1
}

// adjustDrift runs one cell mutation and folds its before/after drift
// contribution into the incremental counter.
func (a *Array) adjustDrift(p, c int, mutate func()) {
	before := a.cellDrifted(p, c)
	mutate()
	a.drifted += a.cellDrifted(p, c) - before
}

// Set programs cell (r, c) to the given level: the write circuitry drives
// the cell to the target, so any accumulated drift is erased. A stuck cell
// accepts the programmed target but its effective level stays pinned.
func (a *Array) Set(r, c int, level uint8) {
	if int(level) >= a.NumLevels() {
		panic(fmt.Sprintf("crossbar: level %d exceeds %d-bit cell", level, a.BitsPerCell))
	}
	a.setCellPhys(a.rowMap[r], c, level)
}

// setCellPhys records the programmed target and, unless the cell is pinned
// by a stuck-at fault, moves the effective level to it.
func (a *Array) setCellPhys(p, c int, level uint8) {
	before := a.cellDrifted(p, c)
	a.setProg(p, c, level)
	if _, pinned := a.stuck[p*a.Cols+c]; !pinned {
		a.setEff(p, c, level)
	}
	a.drifted += a.cellDrifted(p, c) - before
}

// setProg records the programmed target of physical cell (p, c),
// maintaining the programmed-level masks. Every programmed-level write must
// go through here or ProgrammedRowOutput diverges from the cell state.
func (a *Array) setProg(p, c int, level uint8) {
	cells := a.progCells(p)
	old := cells[c]
	if old == level {
		return
	}
	w, b := c/64, uint(c%64)
	if old != 0 {
		a.progMask(p, old)[w] &^= 1 << b
	}
	if level != 0 {
		a.progMask(p, level)[w] |= 1 << b
	}
	cells[c] = level
}

// setEff moves the effective level of physical cell (p, c), maintaining the
// read masks and present-level lists. Callers account for the drifted
// counter.
func (a *Array) setEff(p, c int, level uint8) {
	cells := a.effCells(p)
	old := cells[c]
	if old == level {
		return
	}
	w, b := c/64, uint(c%64)
	if old != 0 {
		m := a.effMask(p, old)
		m[w] &^= 1 << b
		if isZero(m) {
			a.setLevelCount(p, removeLevel(a.levelSlot(p), old))
		}
	}
	if level != 0 {
		m := a.effMask(p, level)
		if isZero(m) {
			a.setLevelCount(p, insertLevel(a.levelSlot(p), level))
		}
		m[w] |= 1 << b
	}
	cells[c] = level
}

// setLevelCount records the length of line p's present-level list after
// an in-place insert or remove.
func (a *Array) setLevelCount(p int, list []uint8) {
	a.present[p*a.NumLevels()] = uint8(len(list))
}

// isZero reports whether a mask has no cell set.
func isZero(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// insertLevel adds lv to the ascending level list (absent by contract),
// in place when the list has spare capacity.
func insertLevel(list []uint8, lv uint8) []uint8 {
	i := len(list)
	for i > 0 && list[i-1] > lv {
		i--
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = lv
	return list
}

// removeLevel drops lv from the ascending level list (present by contract).
func removeLevel(list []uint8, lv uint8) []uint8 {
	for i, v := range list {
		if v == lv {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// SetStuck pins cell (r, c) at the given effective level: a stuck-at fault.
// Subsequent Set calls record the programmed target but do not move the
// cell until ClearStuck. Stuck-at-LRS is the top level (lowest resistance),
// stuck-at-HRS is level 0.
func (a *Array) SetStuck(r, c int, level uint8) {
	if int(level) >= a.NumLevels() {
		panic(fmt.Sprintf("crossbar: stuck level %d exceeds %d-bit cell", level, a.BitsPerCell))
	}
	if a.stuck == nil {
		a.stuck = make(map[int]uint8)
	}
	p := a.rowMap[r]
	a.adjustDrift(p, c, func() {
		a.stuck[p*a.Cols+c] = level
		a.setEff(p, c, level)
	})
}

// ClearStuck removes a stuck-at fault from cell (r, c); the effective level
// returns to the programmed target (modeling a repaired or replaced cell).
func (a *Array) ClearStuck(r, c int) {
	p := a.rowMap[r]
	if _, ok := a.stuck[p*a.Cols+c]; !ok {
		return
	}
	a.adjustDrift(p, c, func() {
		delete(a.stuck, p*a.Cols+c)
		a.setEff(p, c, a.progCells(p)[c])
	})
}

// Stuck reports the pinned level of cell (r, c), if it carries a stuck-at
// fault.
func (a *Array) Stuck(r, c int) (uint8, bool) {
	lv, ok := a.stuck[a.rowMap[r]*a.Cols+c]
	return lv, ok
}

// StuckCount returns the number of stuck-at cells on live word lines
// (retired rows are decommissioned and drop out of the count).
func (a *Array) StuckCount() int { return len(a.stuck) }

// DriftCell shifts the effective level of cell (r, c) by delta conductance
// steps, clamped to the level range (time-parameterized conductance drift;
// the programmed target is unchanged, so reprogramming restores the cell).
// Stuck cells do not drift — the fault dominates. Reports whether the
// effective level changed.
func (a *Array) DriftCell(r, c, delta int) bool {
	p := a.rowMap[r]
	if _, pinned := a.stuck[p*a.Cols+c]; pinned {
		return false
	}
	cur := a.effCells(p)[c]
	lv := int(cur) + delta
	if lv < 0 {
		lv = 0
	}
	if lv >= a.NumLevels() {
		lv = a.NumLevels() - 1
	}
	if uint8(lv) == cur {
		return false
	}
	a.adjustDrift(p, c, func() {
		a.setEff(p, c, uint8(lv))
	})
	return true
}

// DriftedCount returns the number of healthy (non-stuck) cells whose
// effective level has drifted away from the programmed target. The count is
// maintained incrementally on every cell mutation, so polling it per scrub
// cycle or metrics scrape is O(1).
func (a *Array) DriftedCount() int { return a.drifted }

// driftedSlow is the brute-force scan DriftedCount replaced; tests
// cross-check the incremental counter against it.
func (a *Array) driftedSlow() int {
	n := 0
	for p := 0; p < a.physRows(); p++ {
		for c := 0; c < a.Cols; c++ {
			n += a.cellDrifted(p, c)
		}
	}
	return n
}

// Level returns the effective level of cell (r, c) — what a read observes.
func (a *Array) Level(r, c int) uint8 { return a.effCells(a.rowMap[r])[c] }

// Programmed returns the level the write circuitry last targeted for cell
// (r, c), which differs from Level under stuck-at faults or drift.
func (a *Array) Programmed(r, c int) uint8 { return a.progCells(a.rowMap[r])[c] }

// Histogram returns a fresh copy of the effective level histogram of row r.
func (a *Array) Histogram(r int) []int { return a.HistogramInto(nil, r) }

// HistogramInto writes the effective level histogram of row r into dst,
// reusing its backing array when it holds NumLevels entries (a nil dst
// allocates). Each count is the popcount of the row's level mask.
func (a *Array) HistogramInto(dst []int, r int) []int {
	k := a.NumLevels()
	if cap(dst) < k {
		dst = make([]int, k)
	}
	dst = dst[:k]
	p := a.rowMap[r]
	zero := a.Cols
	for l := 1; l < k; l++ {
		n := 0
		for _, w := range a.effMask(p, uint8(l)) {
			n += bits.OnesCount64(w)
		}
		dst[l] = n
		zero -= n
	}
	dst[0] = zero
	return dst
}

// ActiveCounts fills counts[level] with the number of row-r cells at each
// level whose column is active in the input mask. counts must have
// NumLevels entries; entry 0 is left zero (level-0 cells carry no signal
// beyond the calibrated offset). Row addresses go through the row-remap
// table, so spared rows read from their replacement word line.
func (a *Array) ActiveCounts(r int, input []uint64, counts []int) {
	p := a.rowMap[r]
	for l := 1; l < a.NumLevels(); l++ {
		n := 0
		for w, mw := range a.effMask(p, uint8(l)) {
			n += bits.OnesCount64(mw & input[w])
		}
		counts[l] = n
	}
	counts[0] = 0
}

// ActiveCountsBatch is the fused ActiveCounts of the read path: it fills a
// flat level-major counts buffer for B independent bit-plane sets in a
// single pass over row r's level masks, so each mask word is loaded once and
// feeds every plane of every image. The per-row level list and fault-shaped
// level masks are input-independent and shared by every image in a batch,
// so they are walked once per row per batch instead of once per image; a
// lone image is a batch of one. Only levels present in the row are visited
// (all-zero words are skipped within them).
// sets[i] holds image i's bit-plane masks (every image must carry the same
// plane count and word width); counts must have at least NumLevels*stride
// entries, where stride = len(sets)*planes, and entry
// level*stride + i*planes + b receives the active-cell count of image i's
// plane b at that level. Only levels present in the row are written — pair
// this with a consumer that walks the same LevelList(r) and never reads
// absent levels.
func (a *Array) ActiveCountsBatch(r int, sets [][][]uint64, counts []int) {
	p := a.rowMap[r]
	planes := 0
	if len(sets) > 0 {
		planes = len(sets[0])
	}
	stride := len(sets) * planes
	for _, l := range a.levelSlot(p) {
		m := a.effMask(p, l)
		i := int(l) * stride
		switch len(m) {
		case 1:
			// One- and two-word rows (<=128 columns) cover every tiled
			// crossbar in practice; unrolling them removes the word-loop
			// overhead that otherwise dominates the popcounts.
			m0 := m[0]
			for _, ps := range sets {
				for _, in := range ps {
					counts[i] = bits.OnesCount64(m0 & in[0])
					i++
				}
			}
		case 2:
			m0, m1 := m[0], m[1]
			for _, ps := range sets {
				for _, in := range ps {
					in = in[:2]
					counts[i] = bits.OnesCount64(m0&in[0]) + bits.OnesCount64(m1&in[1])
					i++
				}
			}
		default:
			for _, ps := range sets {
				for _, in := range ps {
					inw := in[:len(m)] // pins len(inw)==len(m) for bounds elision
					n := 0
					for w, mw := range m {
						n += bits.OnesCount64(mw & inw[w])
					}
					counts[i] = n
					i++
				}
			}
		}
	}
}

// LevelList returns the ascending nonzero effective levels present in row r.
// The slice is owned by the array: do not mutate, and treat it as
// invalidated by any cell mutation.
func (a *Array) LevelList(r int) []uint8 {
	list := a.levelSlot(a.rowMap[r])
	return list[:len(list):len(list)]
}

// IdealRowOutput returns the noise-free quantized ADC output of row r under
// an input mask: the level-weighted active-cell count, which is exactly the
// integer the shift-and-add tree expects. Row addresses go through the
// row-remap table.
func (a *Array) IdealRowOutput(r int, input []uint64) int {
	p := a.rowMap[r]
	out := 0
	for l := 1; l < a.NumLevels(); l++ {
		n := 0
		for w, mw := range a.effMask(p, uint8(l)) {
			n += bits.OnesCount64(mw & input[w])
		}
		out += l * n
	}
	return out
}

// ProgrammedRowOutput returns the ADC output row r would produce under an
// input mask if every cell sat exactly at its programmed target — the
// expected value a scrub test vector is checked against. The difference
// IdealRowOutput - ProgrammedRowOutput is the row's deviation in steps
// caused by stuck-at faults and drift.
func (a *Array) ProgrammedRowOutput(r int, input []uint64) int {
	p := a.rowMap[r]
	out := 0
	for l := 1; l < a.NumLevels(); l++ {
		n := 0
		for w, mw := range a.progMask(p, uint8(l)) {
			if mw != 0 {
				n += bits.OnesCount64(mw & input[w])
			}
		}
		out += l * n
	}
	return out
}

// programmedRowOutputScan is the O(cols) cell scan ProgrammedRowOutput
// replaced; tests cross-check the mask walk against it.
func (a *Array) programmedRowOutputScan(r int, input []uint64) int {
	out := 0
	for c, lv := range a.progCells(a.rowMap[r]) {
		if lv == 0 {
			continue
		}
		if input[c/64]>>uint(c%64)&1 == 1 {
			out += int(lv)
		}
	}
	return out
}

// OutputFromCounts converts an ActiveCounts result to the ideal ADC output.
func OutputFromCounts(counts []int) int {
	out := 0
	for l := 1; l < len(counts); l++ {
		out += l * counts[l]
	}
	return out
}

// MaxOutput is the ADC full-scale value for this array: every column active
// at the top level.
func (a *Array) MaxOutput() int { return (a.NumLevels() - 1) * a.Cols }

// VerifyTally accumulates per-cell outcomes of closed-loop (write + read
// verify) programming passes.
type VerifyTally struct {
	// Cells is how many cells went through the verify loop.
	Cells uint64
	// Pulses is the total number of write pulses issued.
	Pulses uint64
	// GaveUp counts cells that never read back their target within the
	// iteration bound — the signature of an uncorrectable stuck cell.
	GaveUp uint64
	// Hist[i] counts cells that converged after exactly i+1 pulses.
	Hist []uint64
}

// Note records one cell's verify outcome.
func (t *VerifyTally) Note(pulses int, ok bool) {
	t.Cells++
	t.Pulses += uint64(pulses)
	if !ok {
		t.GaveUp++
		return
	}
	for len(t.Hist) < pulses {
		t.Hist = append(t.Hist, 0)
	}
	t.Hist[pulses-1]++
}

// noteConverged records n cells that verified after pulses pulses each.
func (t *VerifyTally) noteConverged(pulses int, n uint64) {
	t.Cells += n
	t.Pulses += n * uint64(pulses)
	for len(t.Hist) < pulses {
		t.Hist = append(t.Hist, 0)
	}
	t.Hist[pulses-1] += n
}

// Merge folds another tally into this one.
func (t *VerifyTally) Merge(o VerifyTally) {
	t.Cells += o.Cells
	t.Pulses += o.Pulses
	t.GaveUp += o.GaveUp
	for len(t.Hist) < len(o.Hist) {
		t.Hist = append(t.Hist, 0)
	}
	for i, n := range o.Hist {
		t.Hist[i] += n
	}
}

// ProgramVerify is the closed-loop write path: it records the programmed
// target for cell (r, c) and then iteratively pulses and read-verifies the
// cell against the target, up to maxIters pulses. A pulse always lands the
// healthy cell at the target's discrete level (the programming error is
// analog, a fraction of one conductance step), but the verify comparator
// sees the analog conductance: pulseFail, if non-nil, gives the per-level
// probability that one pulse misses the verify tolerance and must be
// re-issued (derived from the iterative-programming noise model); rng draws
// those misses. A cell pinned off-target by a stuck-at fault never
// verifies and the loop gives up after maxIters. Returns the pulse count
// and whether the cell verified at the target — success is only ever
// reported with the effective level at the target.
func (a *Array) ProgramVerify(r, c int, level uint8, maxIters int, pulseFail []float64, rng *rand.Rand) (int, bool) {
	if int(level) >= a.NumLevels() {
		panic(fmt.Sprintf("crossbar: level %d exceeds %d-bit cell", level, a.BitsPerCell))
	}
	return a.programVerifyPhys(a.rowMap[r], c, level, maxIters, pulseFail, rng)
}

func (a *Array) programVerifyPhys(p, c int, level uint8, maxIters int, pulseFail []float64, rng *rand.Rand) (int, bool) {
	if maxIters < 1 {
		maxIters = 1
	}
	// Pulse: even when the analog landing misses the verify tolerance the
	// cell holds the target's discrete level, so the digital state after a
	// verified program equals the blind-write state — the rng only decides
	// how many pulses that took. Re-pulses rewrite the same level, so the
	// state is written once.
	a.setCellPhys(p, c, level)
	if a.effCells(p)[c] != level {
		return maxIters, false // pinned off-target: pulses cannot move it
	}
	for iter := 1; iter <= maxIters; iter++ {
		if pulseFail != nil && rng != nil {
			if pf := pulseFail[level]; pf > 0 && rng.Float64() < pf {
				continue // analog landing outside tolerance: re-pulse
			}
		}
		return iter, true
	}
	return maxIters, false
}

// ProgramLevels blind-writes a whole fresh array at once: levels holds
// every logical row's target level in column-major order (cell (r, c) at
// levels[c*Rows+r], the layout SliceLevelsInto fills one column at a time),
// and each word line's cells, both mask sets and present-level list are
// built in one pass instead of one cell at a time. The array must hold no
// stuck cells and no drift (as NewArrayWithSpares returns it), so every
// cell's effective level is its programmed one. Closed-loop programming is
// ProgramLevels followed by a VerifyPass over the same slab: a verified
// write lands the same discrete level a blind one does.
func (a *Array) ProgramLevels(levels []uint8) error {
	if len(levels) != a.Rows*a.Cols {
		return fmt.Errorf("crossbar: %d levels for a %dx%d array", len(levels), a.Rows, a.Cols)
	}
	if len(a.stuck) > 0 || a.drifted != 0 {
		return fmt.Errorf("crossbar: ProgramLevels needs an array without stuck or drifted cells")
	}
	k := a.NumLevels()
	for r := 0; r < a.Rows; r++ {
		p := a.rowMap[r]
		prog, eff := a.progCells(p), a.effCells(p)
		// A line's effective masks come first and its programmed ones
		// second; with every cell on target the two halves are equal.
		line := a.masks[p*a.lineWords : (p+1)*a.lineWords]
		effMasks := line[:a.lineWords/2]
		clear(effMasks)
		var seen [4]uint64 // bit l set once level l > 0 occurs on the line
		for c, i := 0, r; c < a.Cols; c, i = c+1, i+a.Rows {
			lv := levels[i]
			if int(lv) >= k {
				return fmt.Errorf("crossbar: level %d exceeds %d-bit cell", lv, a.BitsPerCell)
			}
			prog[c], eff[c] = lv, lv
			if lv != 0 {
				effMasks[(int(lv)-1)*a.words+c/64] |= 1 << uint(c%64)
				seen[lv/64] |= 1 << (lv % 64)
			}
		}
		copy(line[a.lineWords/2:], effMasks)
		slot := a.present[p*k : (p+1)*k]
		n := 0
		for l := 1; l < k; l++ {
			if seen[l/64]>>(l%64)&1 == 1 {
				n++
				slot[n] = uint8(l)
			}
		}
		slot[0] = uint8(n)
	}
	return nil
}

// VerifyPass is the closed-loop verify of an array freshly written by
// ProgramLevels, split like a row read into a pure half and a draw half.
// A pulse always lands a healthy cell at its target's discrete level, so
// the cells are final once written and the verify stream decides only the
// pulse counts: Prepare keeps, in slab order, the levels whose pulses can
// miss and counts the cells that verify on their first pulse, and Draw
// consumes the stream for the kept cells and tallies every cell. Prepare
// touches no RNG and may run on any goroutine; ProgramLevels, Prepare and
// Draw over the same slab leave the array, the tally and the stream
// exactly as ProgramVerify of each cell in column/row order would.
type VerifyPass struct {
	pulseFail []float64
	draws     []uint8 // levels of the cells whose pulses can miss
	sure      uint64  // cells that verify on their first pulse
}

// Prepare runs the pure half over a column-major level slab (the one
// ProgramLevels wrote) under the per-level single-pulse miss
// probabilities pulseFail (nil: every pulse verifies). It reuses the
// pass's buffer.
func (v *VerifyPass) Prepare(levels []uint8, pulseFail []float64) {
	v.pulseFail, v.sure = pulseFail, 0
	v.draws = v.draws[:0]
	if pulseFail == nil {
		v.sure = uint64(len(levels))
		return
	}
	var miss [256]uint8 // 1 where a pulse at that level can miss
	for l, pf := range pulseFail {
		if pf > 0 {
			miss[l] = 1
		}
	}
	buf := slices.Grow(v.draws, len(levels))[:len(levels)]
	n := 0
	for _, lv := range levels {
		buf[n] = lv
		n += int(miss[lv])
	}
	v.draws = buf[:n]
	v.sure = uint64(len(levels) - n)
}

// Draw runs the draw half: up to maxIters pulses per kept cell, each
// missing with its level's probability on rng, and every cell's outcome
// folded into tally. A nil rng draws nothing and verifies every pulse.
func (v *VerifyPass) Draw(maxIters int, rng *stats.FastRand, tally *VerifyTally) {
	maxIters = max(1, maxIters)
	// conv[i] counts the cells verified after i+1 pulses; later ones are
	// noted one by one.
	var conv [8]uint64
	var gaveUp uint64
	conv[0] = v.sure
	if rng == nil {
		conv[0] += uint64(len(v.draws))
	} else {
		// Float64 < pf compares the variate's low 53 bits, scaled by
		// 2^-53, with pf; both sides are exact, so the comparison is
		// bits < ceil(pf * 2^53) on integers.
		var miss [256]uint64
		for l, pf := range v.pulseFail {
			if pf > 0 {
				miss[l] = uint64(math.Ceil(math.Min(pf, 1) * (1 << 53)))
			}
		}
		for _, lv := range v.draws {
			th := miss[lv]
			iter := 1
			for iter <= maxIters && rng.Uint64()&(1<<53-1) < th {
				iter++
			}
			switch {
			case iter > maxIters:
				gaveUp++
			case iter <= len(conv):
				conv[iter-1]++
			default:
				tally.Note(iter, true)
			}
		}
	}
	for i, n := range conv {
		if n > 0 {
			tally.noteConverged(i+1, n)
		}
	}
	tally.Cells += gaveUp
	tally.Pulses += gaveUp * uint64(maxIters)
	tally.GaveUp += gaveUp
}

// SpareRowsFree returns how many spare word lines remain available.
func (a *Array) SpareRowsFree() int { return len(a.spareFree) }

// SparedRows returns how many rows have been retired onto spares.
func (a *Array) SparedRows() int { return a.spared }

// SpareRow retires logical row r onto the next free spare word line: the
// spare is programmed with r's targets through the verify path, the
// row-remap table is repointed so all reads land on the replacement, and
// the worn word line is decommissioned (its faults leave the live
// population). Returns false, with a zero tally, when no spare is free.
func (a *Array) SpareRow(r int, maxIters int, pulseFail []float64, rng *rand.Rand) (VerifyTally, bool) {
	var tally VerifyTally
	if len(a.spareFree) == 0 {
		return tally, false
	}
	old := a.rowMap[r]
	repl := a.spareFree[0]
	a.spareFree = a.spareFree[1:]
	// Programming the replacement leaves the worn line's targets in place,
	// so they are read straight from the slab.
	for c, lv := range a.progCells(old) {
		pulses, ok := a.programVerifyPhys(repl, c, lv, maxIters, pulseFail, rng)
		tally.Note(pulses, ok)
	}
	a.rowMap[r] = repl
	a.spared++
	// Decommission the worn word line: clear its cells and faults so the
	// stuck/drift population counters track only live rows.
	for c := 0; c < a.Cols; c++ {
		a.adjustDrift(old, c, func() {
			delete(a.stuck, old*a.Cols+c)
			a.setProg(old, c, 0)
			a.setEff(old, c, 0)
		})
	}
	return tally, true
}

// SliceLevelsInto splits an encoded word into per-row cell levels, least
// significant slice first (Figure 2), writing into dst and reusing its
// backing array when it holds nRows levels (a nil dst allocates). nRows
// must cover the word's bit length; rows past it read 0. The limbs stream
// through one bit buffer, so a slice that straddles two limbs costs no more
// than one inside a limb, at any width from 1 to 8 bits.
func SliceLevelsInto(dst []uint8, w core.Word, bitsPerCell, nRows int) ([]uint8, error) {
	if err := checkSliceRows(w, bitsPerCell, nRows); err != nil {
		return nil, err
	}
	if cap(dst) < nRows {
		dst = make([]uint8, nRows)
	}
	dst = dst[:nRows]
	width := uint(bitsPerCell)
	mask := uint64(1)<<width - 1
	var buf uint64 // the next have bits of the word, least significant first
	have, limb := uint(0), 0
	for r := range dst {
		if have >= width {
			dst[r] = uint8(buf & mask)
			buf >>= width
			have -= width
			continue
		}
		// The slice takes the buffer's have bits and width-have bits of
		// the next limb; the limb's rest becomes the buffer.
		var next uint64
		if limb < len(w) {
			next = w[limb]
			limb++
		}
		dst[r] = uint8((buf | next<<have) & mask)
		buf = next >> (width - have)
		have = 64 - (width - have)
	}
	return dst, nil
}

// checkSliceRows reports an error when nRows slices cannot hold w.
func checkSliceRows(w core.Word, bitsPerCell, nRows int) error {
	if need := (w.BitLen() + bitsPerCell - 1) / bitsPerCell; need > nRows {
		return fmt.Errorf("crossbar: %d-bit word needs %d slices, only %d rows", w.BitLen(), need, nRows)
	}
	return nil
}

// ReduceRows reassembles per-row ADC outputs into the full logical result
// via the shift-and-add tree: sum of outs[r] << (r*bitsPerCell). Outputs
// must be non-negative (the ADC clamps at zero). ok is false on overflow.
func ReduceRows(outs []int, bitsPerCell int) (core.Word, bool) {
	var acc core.Word
	for r, o := range outs {
		if o < 0 {
			return core.Word{}, false
		}
		if o == 0 {
			continue
		}
		if !acc.AddShifted(uint64(o), uint(r*bitsPerCell)) {
			return core.Word{}, false
		}
	}
	return acc, true
}

// InputMasks bit-slices a quantized input vector for bit-serial application
// (Section II-B1): masks[b] has bit j set iff bit b of input j is one.
func InputMasks(vals []uint64, inputBits int) [][]uint64 {
	return InputMasksInto(nil, vals, inputBits)
}

// InputMasksInto is InputMasks writing into dst, reusing dst's plane slices
// when they are large enough (the scratch-arena variant of the hot path).
// The returned planes alias dst's backing arrays; zero-valued inputs are
// skipped entirely, and within a nonzero input only its set bits are
// visited.
func InputMasksInto(dst [][]uint64, vals []uint64, inputBits int) [][]uint64 {
	words := (len(vals) + 63) / 64
	if cap(dst) < inputBits {
		grown := make([][]uint64, inputBits)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:inputBits]
	for b := range dst {
		if cap(dst[b]) < words {
			dst[b] = make([]uint64, words)
			continue
		}
		dst[b] = dst[b][:words]
		for w := range dst[b] {
			dst[b][w] = 0
		}
	}
	var keep uint64 = ^uint64(0)
	if inputBits < 64 {
		keep = 1<<uint(inputBits) - 1
	}
	for j, v := range vals {
		v &= keep
		if v == 0 {
			continue
		}
		w, bit := j/64, uint(j%64)
		for ; v != 0; v &= v - 1 {
			dst[bits.TrailingZeros64(v)][w] |= 1 << bit
		}
	}
	return dst
}
