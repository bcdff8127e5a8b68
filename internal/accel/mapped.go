package accel

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/fixed"
	"repro/internal/noise"
	"repro/internal/stats"
)

// activeProb is the assumed probability that a column is driven in a given
// input-bit cycle, used when ranking characterized faults for syndrome
// allocation (input bits of quantized activations are roughly balanced).
const activeProb = 0.5

// verifySeedSalt separates the program-verify RNG stream from the layer's
// fault-injection stream: both derive from (cfg.Seed, layer seed), but the
// verify loop must not consume draws the stuck/giant injection depends on.
const verifySeedSalt = uint64(1) << 62

// stuckInfo is one stuck cell's precomputed read-time effect.
type stuckInfo struct {
	word  int
	bit   uint
	delta int // output deviation in steps while the column is active
}

// giantInfo is one giant-RTN-prone cell's precomputed read-time effect:
// when its column is active and the cell flickers into the error state, the
// row current shifts by mag steps.
type giantInfo struct {
	word int
	bit  uint
	mag  float64
}

// group is one coded operand group mapped onto a (logical) array: GroupOps
// output rows sharing a column chunk, bit sliced with check bits attached.
type group struct {
	arr    *crossbar.Array
	code   *core.Code // nil for the NoECC baseline
	layout core.GroupLayout
	// outRows are the output indices served by each lane.
	outRows []int
	// maxLane is the largest partial sum a lane can legitimately hold
	// (columns * max operand); the ECU uses it as a plausibility bound to
	// reject miscorrections that a blind table lookup would let through.
	maxLane uint64
	// stuck and giant list the stuck and giant-RTN-prone cells of each
	// physical row; most rows host none.
	stuck rowTable[stuckInfo]
	giant rowTable[giantInfo]
}

// rowTable is a compressed-sparse-row list of per-row entries: row r's
// entries are ent[off[r]:off[r+1]], in the order they were added. Two
// pointer-free slabs replace a slice header per row, and a table without
// entries holds nothing at all.
type rowTable[T any] struct {
	ent []T
	off []int32
}

// row returns row r's entries (none when the table is empty).
func (t *rowTable[T]) row(r int) []T {
	if t.off == nil {
		return nil
	}
	return t.ent[t.off[r]:t.off[r+1]]
}

// newRowTable builds a table over rows rows from n candidates: entry(i)
// returns candidate i's row and value, and whether to keep it. Each row
// keeps its candidates' order.
func newRowTable[T any](rows, n int, entry func(i int) (int, T, bool)) rowTable[T] {
	var t rowTable[T]
	for i := 0; i < n; i++ {
		if r, _, ok := entry(i); ok {
			if t.off == nil {
				t.off = make([]int32, rows+1)
			}
			t.off[r+1]++
		}
	}
	if t.off == nil {
		return t
	}
	for r := 1; r <= rows; r++ {
		t.off[r] += t.off[r-1]
	}
	// Place each entry at its row's cursor; the cursors end one row ahead,
	// so shifting them back by one row restores the offsets.
	t.ent = make([]T, t.off[rows])
	for i := 0; i < n; i++ {
		if r, v, ok := entry(i); ok {
			t.ent[t.off[r]] = v
			t.off[r]++
		}
	}
	copy(t.off[1:], t.off[:rows])
	t.off[0] = 0
	return t
}

// chunk is a column range of the weight matrix mapped onto one array
// column block.
type chunk struct {
	colLo, colHi int
	groups       []*group
}

// MappedMatrix is one weight matrix (dense layer, or convolution kernel
// viewed as OutC x PatchLen) quantized, encoded, and programmed onto
// crossbar arrays.
type MappedMatrix struct {
	cfg     Config
	sampler *noise.RowSampler
	outDim  int
	inDim   int
	scale   float64
	chunks  []*chunk
	// pulseFail is the per-level single-pulse verify-miss probability the
	// closed-loop write path draws against.
	pulseFail []float64
	// verify accumulates the program-verify accounting of the mapping pass.
	verify crossbar.VerifyTally
	// PhysicalRows is the total word-line count across all groups, the
	// quantity the hardware model charges for ADC/driver overhead.
	PhysicalRows int
}

// MapMatrix quantizes and programs a weight matrix. weightAt(r, c) returns
// the float weight of output r, input c. seed drives fault injection and
// must differ across layers for independent fault populations.
// retuneDevice swaps the device model under an environment change without
// re-programming the arrays: digital cell state, codes, and the static
// allocation tables are untouched; only the noise sampler and the verify
// pulse-miss probabilities derive from the new device. The caller must hold
// the owning slot's write lock. Structural parameters (BitsPerCell — the
// array level count) cannot change without a remap.
func (m *MappedMatrix) retuneDevice(dev noise.DeviceParams) error {
	if dev.BitsPerCell != m.cfg.Device.BitsPerCell {
		return fmt.Errorf("accel: retune cannot change bits/cell %d -> %d without a remap",
			m.cfg.Device.BitsPerCell, dev.BitsPerCell)
	}
	sampler, err := noise.NewRowSampler(dev)
	if err != nil {
		return err
	}
	m.cfg.Device = dev
	m.sampler = sampler
	m.pulseFail = sampler.PulseFailProbs()
	return nil
}

// Device returns the device model currently driving this matrix's noise
// sampler.
func (m *MappedMatrix) Device() noise.DeviceParams { return m.cfg.Device }

func MapMatrix(cfg Config, outDim, inDim int, weightAt func(r, c int) float64, seed uint64) (*MappedMatrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if outDim < 1 || inDim < 1 {
		return nil, fmt.Errorf("accel: empty matrix %dx%d", outDim, inDim)
	}
	sampler, err := noise.NewRowSampler(cfg.Device)
	if err != nil {
		return nil, err
	}

	// Quantize the whole layer with one scale, then encode negatives per
	// the configured scheme: offset binary (one row set plus a digital
	// bias) or differential (separate positive/negative row sets).
	flat := make([]float64, outDim*inDim)
	for r := 0; r < outDim; r++ {
		for c := 0; c < inDim; c++ {
			flat[r*inDim+c] = weightAt(r, c)
		}
	}
	q := fixed.Quantize(flat, cfg.WeightBits)
	internalOut := outDim
	if cfg.Encoding == EncodingDifferential {
		internalOut = 2 * outDim
	}
	biased := make([]uint64, internalOut*inDim)
	for r := 0; r < outDim; r++ {
		for c := 0; c < inDim; c++ {
			v := q.Values[r*inDim+c]
			if cfg.Encoding == EncodingDifferential {
				if v >= 0 {
					biased[(2*r)*inDim+c] = uint64(v)
				} else {
					biased[(2*r+1)*inDim+c] = uint64(-v)
				}
			} else {
				biased[r*inDim+c] = fixed.Bias(v, cfg.WeightBits)
			}
		}
	}

	m := &MappedMatrix{cfg: cfg, sampler: sampler, outDim: outDim, inDim: inDim, scale: q.Scale,
		pulseFail: sampler.PulseFailProbs()}
	var places []groupPlace
	for lo := 0; lo < inDim; lo += cfg.ArraySize {
		m.chunks = append(m.chunks, &chunk{colLo: lo, colHi: min(lo+cfg.ArraySize, inDim)})
		for gLo := 0; gLo < internalOut; gLo += cfg.Scheme.GroupOps {
			places = append(places, groupPlace{chunk: len(m.chunks) - 1, gLo: gLo,
				gHi: min(gLo+cfg.Scheme.GroupOps, internalOut)})
		}
	}
	mp := &mapPass{m: m, biased: biased,
		rng: stats.SubRNG(cfg.Seed, seed),
		// The verify pass draws pulse misses from its own stream so
		// enabling closed-loop programming does not perturb the
		// fault-injection draws — recorded experiment seeds keep
		// reproducing.
		vrng: stats.FastSub(cfg.Seed, seed^verifySeedSalt),
	}
	// Groups go through three phases in windows: draw (rng, serial, group
	// order), build (packing, search, encoding, slicing, the array write,
	// fault tables and the verify pass's pure half; fanned across
	// GOMAXPROCS), verify (vrng, serial, group order).
	// Window k's verify pass runs on the calling goroutine while the other
	// workers build window k+1. Each stream is consumed exactly as a
	// one-group-at-a-time pass would consume it, so the window size and the
	// worker count cannot move a draw; bounding the window bounds the plans
	// held at once.
	mp.startWorkers(len(places))
	defer mp.stopWorkers()
	window := mapWindowPerProc * runtime.GOMAXPROCS(0)
	n := min(window, len(places))
	// Two windows of plans: window k's verify pass draws from its plans
	// while window k+1 builds in the other half.
	plans := make([]groupPlan, 2*n)
	var prev []groupPlan
	for k, lo := 0, 0; lo < len(places); k, lo = k+1, lo+window {
		batch := plans[k%2*n:][:min(window, len(places)-lo)]
		for i := range batch {
			if err := mp.draw(&batch[i], places[lo+i]); err != nil {
				return nil, err
			}
		}
		mp.buildAll(batch, prev)
		for i := range batch {
			p := &batch[i]
			if p.err != nil {
				return nil, p.err
			}
			ch := m.chunks[places[lo+i].chunk]
			ch.groups = append(ch.groups, p.g)
			m.PhysicalRows += p.g.arr.Rows
		}
		prev = batch
	}
	mp.verify(prev)
	return m, nil
}

// layoutFor builds the group layout for a lane count under the scheme's
// guard policy.
func (m *MappedMatrix) layoutFor(ops, cols int) core.GroupLayout {
	// Guard bits absorb per-input-bit accumulation over the chunk columns;
	// the input-bit reduction happens digitally after decode, so the
	// column count is the only growth the lanes must absorb.
	guard := core.GuardBitsFor(cols)
	if m.cfg.Scheme.ZeroGuard {
		guard = 0
	}
	return core.GroupLayout{Operands: ops, OperandBits: m.cfg.WeightBits, GuardBits: guard}
}

// groupDataBits is the bit length of the widest packed group value.
func groupDataBits(layout core.GroupLayout) int {
	return (layout.Operands-1)*layout.LaneBits() + layout.OperandBits
}

// mapWindowPerProc is how many groups per GOMAXPROCS one mapping window
// holds.
const mapWindowPerProc = 4

// groupPlace locates one coded group: its chunk and its internal output
// row range.
type groupPlace struct {
	chunk    int
	gLo, gHi int
}

// mapPass is one MapMatrix call's state across the draw, build, and
// verify phases.
type mapPass struct {
	m           *MappedMatrix
	biased      []uint64
	rng         *rand.Rand
	vrng        *stats.FastRand
	staticCache map[int]*core.Code
	// workers holds one build worker's reusable buffers each, grown on
	// first use; feeds hands each window to workers 1..n-1, built counts
	// their shares of the window still running, and exited the workers
	// not yet returned.
	workers []mapWorker
	feeds   []chan []groupPlan
	built   sync.WaitGroup
	exited  sync.WaitGroup
}

// groupPlan is one group between its draw and build phases: the row
// geometry and the characterized fault populations drawn for its cells;
// the build phase packs its operands and fills in its code, its group (or
// err) and the pure half of its verify pass.
type groupPlan struct {
	outRows      []int
	colLo, colHi int
	layout       core.GroupLayout
	nRows        int
	packed       []core.Word // reused across windows
	stuck        []noise.StuckCell
	giant        []noise.GiantCell
	code         *core.Code // static code, or the searched one for ABN; nil for NoECC
	g            *group
	err          error
	verify       crossbar.VerifyPass // reused across windows
}

// draw runs a group's draw phase: size the row count and draw its stuck
// and giant-RTN-prone cells and their characterization from the
// fault-injection stream.
func (mp *mapPass) draw(p *groupPlan, at groupPlace) error {
	m := mp.m
	ch := m.chunks[at.chunk]
	*p = groupPlan{colLo: ch.colLo, colHi: ch.colHi, verify: p.verify,
		packed:  slices.Grow(p.packed[:0], ch.colHi-ch.colLo),
		outRows: make([]int, 0, at.gHi-at.gLo)}
	for r := at.gLo; r < at.gHi; r++ {
		p.outRows = append(p.outRows, r)
	}
	cols := p.colHi - p.colLo
	p.layout = m.layoutFor(len(p.outRows), cols)
	cell := m.cfg.Device.BitsPerCell

	// Determine the check budget and row count.
	var checkBits int
	switch m.cfg.Scheme.Kind {
	case KindNone:
		checkBits = 0
	case KindStatic:
		if mp.staticCache == nil {
			mp.staticCache = map[int]*core.Code{}
		}
		c, err := staticCodeFor(mp.staticCache, p.layout, cell, m.cfg.Scheme.B)
		if err != nil {
			return err
		}
		p.code = c
		checkBits = c.CheckBits()
	case KindABN:
		checkBits = m.cfg.Scheme.CheckBits
	}
	p.nRows = (groupDataBits(p.layout) + checkBits + cell - 1) / cell

	// Hard faults and the giant-RTN-prone population are properties of the
	// physical cells, independent of the code eventually chosen; the
	// characterization pass (Section V-B5) identifies both.
	p.stuck = noise.InjectStuck(mp.rng, p.nRows, cols, m.cfg.Device)
	p.giant = noise.InjectGiantProne(mp.rng, p.nRows, cols, m.cfg.Device)

	// Program-verify characterization: stuck cells discovered while
	// writing the weights are compensated digitally by the ECU periphery
	// (their analog deviation is known exactly and subtracted), so they
	// vanish from the error model; only post-deployment endurance
	// failures remain for the split correction tables. The NoECC baseline
	// has no error-handling periphery at all (the paper's premise), so it
	// takes every fault raw.
	if m.cfg.Scheme.Kind != KindNone {
		unknown := p.stuck[:0:0]
		for _, sc := range p.stuck {
			if mp.rng.Float64() >= m.cfg.Device.StuckCharacterizedFrac {
				unknown = append(unknown, sc)
			}
		}
		p.stuck = unknown
	}
	return nil
}

// startWorkers starts the build workers once per MapMatrix call, up to
// GOMAXPROCS of them. Worker 0 is the calling goroutine; workers 1..n-1
// wait for each window on their own feed, so a map starts the same
// goroutines however many windows it runs.
func (mp *mapPass) startWorkers(groups int) {
	workers := max(1, min(groups, runtime.GOMAXPROCS(0)))
	mp.workers = make([]mapWorker, workers)
	mp.feeds = make([]chan []groupPlan, workers-1)
	for i := range mp.feeds {
		mp.feeds[i] = make(chan []groupPlan, 1)
		mp.exited.Add(1)
		go func(w int, feed <-chan []groupPlan) {
			defer mp.exited.Done()
			for batch := range feed {
				kernelWorkers.Add(1)
				mp.buildStride(w, batch)
				kernelWorkers.Add(-1)
				mp.built.Done()
			}
		}(i+1, mp.feeds[i])
	}
}

// stopWorkers ends the workers startWorkers started and waits for them to
// return, so the next map reuses their goroutine records instead of racing
// their exit and allocating new ones; at a given GOMAXPROCS a map then
// allocates the same count every run.
func (mp *mapPass) stopWorkers() {
	for _, feed := range mp.feeds {
		close(feed)
	}
	mp.exited.Wait()
}

// buildAll builds every plan of a window and returns once all of them are
// done. The calling goroutine first runs the verify pass of prev, the
// previous window, and then takes its own share. A build is pure, so its
// result does not depend on which worker ran it or when; the fixed stride
// also fixes which groups grow each worker's buffers.
func (mp *mapPass) buildAll(batch, prev []groupPlan) {
	mp.built.Add(len(mp.feeds))
	for _, feed := range mp.feeds {
		feed <- batch
	}
	kernelWorkers.Add(1)
	mp.verify(prev)
	mp.buildStride(0, batch)
	kernelWorkers.Add(-1)
	mp.built.Wait()
}

// buildStride runs worker w's share of a window: groups w, w+workers, ...
func (mp *mapPass) buildStride(w int, batch []groupPlan) {
	for i := w; i < len(batch); i += len(mp.workers) {
		p := &batch[i]
		p.g, p.err = mp.workers[w].build(mp.m, mp.biased, p)
	}
}

// verify runs the draw half of the verify pass of each plan in group
// order, drawing pulse misses from the verify stream. The cells are
// already written: a verified write lands the level a blind write does, so
// vrng decides only the tally.
func (mp *mapPass) verify(plans []groupPlan) {
	m := mp.m
	if m.cfg.VerifyIters <= 0 {
		return
	}
	for i := range plans {
		plans[i].verify.Draw(m.cfg.VerifyIters, mp.vrng, &m.verify)
	}
}

// mapWorker is one build worker's scratch, reused across candidate A
// values and groups so a build allocates little beyond the array and the
// tables it keeps.
type mapWorker struct {
	ops []uint64 // one column's lane operands
	// slab backs levels and best: [col*nRows+row] cell levels under the
	// candidate A being tried and under the best one so far.
	slab, levels, best []uint8
	hist               []int // [row*numLevels+level] cell count under the candidate A
	rowProbs           []noise.StepProbs
	mags               [][]float64        // per row: characterized giant magnitudes
	extra              [][]core.ExtraStep // per row: registered extra steps
	spec               core.DataAwareSpec
}

// build runs a group's build phase: pack its lane operands, pick its code
// (the A search under ABN), encode and slice them, write them into a fresh
// array, and precompute the read-time effect of its characterized faults.
// It reads the plan, the biased weights and the matrix's read-only sampler
// and touches no RNG.
func (w *mapWorker) build(m *MappedMatrix, biased []uint64, p *groupPlan) (*group, error) {
	// Pack the lane operands per column.
	cols := p.colHi - p.colLo
	w.ops = slices.Grow(w.ops[:0], len(p.outRows))[:len(p.outRows)]
	for j := 0; j < cols; j++ {
		for i, r := range p.outRows {
			w.ops[i] = biased[r*m.inDim+p.colLo+j]
		}
		word, err := p.layout.Pack(w.ops)
		if err != nil {
			return nil, err
		}
		p.packed = append(p.packed, word)
	}

	n := cols * p.nRows
	w.slab = slices.Grow(w.slab[:0], 2*n)[:2*n]
	w.levels, w.best = w.slab[:n:n], w.slab[n:]
	if m.cfg.Scheme.Kind == KindABN {
		p.code = w.search(m, p)
	}
	if p.code == nil || m.cfg.Scheme.Kind != KindABN {
		// The search leaves its winner's levels in best; every other
		// code, and an ABN group no candidate A fits, is encoded here.
		mult := uint64(1)
		if p.code != nil {
			mult = p.code.M()
		}
		if err := encodeInto(w.best, p.packed, mult, m.cfg.Device.BitsPerCell, p.nRows); err != nil {
			return nil, err
		}
	}
	arr := crossbar.NewArrayWithSpares(p.nRows, cols, m.cfg.Device.BitsPerCell, m.cfg.SpareRows)
	if err := arr.ProgramLevels(w.best); err != nil {
		return nil, err
	}
	if m.cfg.VerifyIters > 0 {
		p.verify.Prepare(w.best, m.pulseFail)
	}

	g := &group{arr: arr, code: p.code, layout: p.layout, outRows: p.outRows,
		maxLane: uint64(cols) * (uint64(1)<<p.layout.OperandBits - 1)}
	g.stuck = newRowTable(p.nRows, len(p.stuck), func(i int) (int, stuckInfo, bool) {
		sc := p.stuck[i]
		delta := int(sc.Level) - int(arr.Level(sc.Row, sc.Col))
		return sc.Row, stuckInfo{word: sc.Col / 64, bit: uint(sc.Col % 64), delta: delta}, delta != 0
	})
	g.giant = newRowTable(p.nRows, len(p.giant), func(i int) (int, giantInfo, bool) {
		gc := p.giant[i]
		mag := m.sampler.GiantMagnitude(int(arr.Level(gc.Row, gc.Col)))
		if gc.Neg {
			mag = -mag
		}
		return gc.Row, giantInfo{word: gc.Col / 64, bit: uint(gc.Col % 64), mag: mag}, mag != 0
	})
	return g, nil
}

// encodeInto multiplies each packed column word by mult and slices it into
// dst's column (column j at dst[j*nRows:(j+1)*nRows]).
func encodeInto(dst []uint8, packed []core.Word, mult uint64, cell, nRows int) error {
	for j, w := range packed {
		enc, ok := w.MulU64(mult)
		if !ok {
			return fmt.Errorf("accel: encoding overflow in group")
		}
		if _, err := crossbar.SliceLevelsInto(dst[j*nRows:(j+1)*nRows], enc, cell, nRows); err != nil {
			return err
		}
	}
	return nil
}

// search runs the per-array A search of Section V-B4: for each candidate
// A the group is (virtually) encoded, the per-row worst-case error
// probabilities derived from the resulting cell states, and the data-aware
// table built; the A covering the most error probability wins, and its
// cell levels are left in w.best.
func (w *mapWorker) search(m *MappedMatrix, p *groupPlan) *core.Code {
	b := m.cfg.Scheme.B
	if b == 0 {
		b = 1
	}
	var candidates []uint64
	if m.cfg.Scheme.FullSearch {
		candidates = core.CandidateAs(m.cfg.Scheme.CheckBits, b)
	} else {
		candidates = core.HardwareCandidateAs(m.cfg.Scheme.CheckBits, b)
	}
	cell := m.cfg.Device.BitsPerCell
	numLevels := 1 << cell
	nRows := p.nRows
	w.hist = slices.Grow(w.hist[:0], nRows*numLevels)[:nRows*numLevels]
	w.rowProbs = slices.Grow(w.rowProbs[:0], nRows)[:nRows]
	for len(w.mags) < nRows {
		w.mags = append(w.mags, nil)
		w.extra = append(w.extra, nil)
	}
	flicker := m.cfg.Device.GiantFlickerProb

	var best *core.Code
	bestCovered := -1.0
	for _, a := range candidates {
		// Virtual encode: per-row level histograms under this A.
		if encodeInto(w.levels, p.packed, a*b, cell, nRows) != nil {
			continue
		}
		clear(w.hist)
		for j := range p.packed {
			for r, l := range w.levels[j*nRows : (j+1)*nRows] {
				w.hist[r*numLevels+int(l)]++
			}
		}
		for r := 0; r < nRows; r++ {
			// Worst-case susceptibility (Section V-B5): every column
			// active, so the active counts are the level histogram.
			w.rowProbs[r] = m.sampler.PredictStepProbs(w.hist[r*numLevels : (r+1)*numLevels])
			w.mags[r] = w.mags[r][:0]
			w.extra[r] = w.extra[r][:0]
		}
		// Characterized giant-prone cells dominate the row susceptibility;
		// their magnitudes depend on the levels this candidate A encodes.
		// Small events blur across the +/-1 and +/-2 buckets; larger ones
		// register their true rounded step so the table allocates the
		// syndrome that actually occurs.
		for _, gc := range p.giant {
			mag := m.sampler.GiantMagnitude(int(w.levels[gc.Col*nRows+gc.Row]))
			if gc.Neg {
				mag = -mag
			}
			if math.Abs(mag) < 2.5 {
				w.rowProbs[gc.Row].AddDiscrete(mag, flicker*activeProb)
			} else {
				// Large events quantize to their rounded step, but the
				// residual read jitter occasionally lands one step away;
				// register the neighbours so those reads stay correctable.
				for d := -1; d <= 1; d++ {
					steps := int(math.Round(mag)) + d
					bw := stepBlurWeight(mag, steps)
					if steps != 0 && bw > 1e-4 {
						w.extra[gc.Row] = append(w.extra[gc.Row],
							core.ExtraStep{Steps: steps, P: flicker * activeProb * bw})
					}
				}
			}
			w.mags[gc.Row] = append(w.mags[gc.Row], mag)
		}
		// Rows hosting several prone cells can produce combined-step
		// errors beyond the +/-2 buckets; register the pairwise sums.
		p2 := flicker * activeProb * flicker * activeProb
		for r, mags := range w.mags[:nRows] {
			for i := 0; i < len(mags); i++ {
				for j := i + 1; j < len(mags); j++ {
					steps := int(math.Round(mags[i] + mags[j]))
					if steps != 0 && steps != 1 && steps != -1 && steps != 2 && steps != -2 {
						w.extra[r] = append(w.extra[r], core.ExtraStep{Steps: steps, P: p2})
					}
				}
			}
		}
		w.spec.Rows = w.spec.Rows[:0]
		for r := 0; r < nRows; r++ {
			w.spec.Rows = append(w.spec.Rows, core.RowErr{
				BitOffset: r * cell,
				StepProb:  w.rowProbs[r],
				Extra:     w.extra[r],
			})
		}
		w.spec.Stuck = w.spec.Stuck[:0]
		for _, sc := range p.stuck {
			delta := int(sc.Level) - int(w.levels[sc.Col*nRows+sc.Row])
			if delta == 0 {
				continue
			}
			w.spec.Stuck = append(w.spec.Stuck, core.StuckErr{
				BitOffset: sc.Row * cell, Steps: delta, PActive: activeProb,
			})
		}
		table := core.BuildDataAwareTable(a, b, w.spec)
		if table.CoveredProb() > bestCovered {
			best = &core.Code{A: a, B: b, Table: table}
			bestCovered = table.CoveredProb()
			w.levels, w.best = w.best, w.levels
		}
	}
	return best
}

// stepBlurWeight is the probability that a discrete error of continuous
// magnitude mag quantizes to the given step under the residual read jitter.
func stepBlurWeight(mag float64, steps int) float64 {
	const sigma = 0.15
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/(sigma*math.Sqrt2))) }
	s := float64(steps)
	return phi(s+0.5-mag) - phi(s-0.5-mag)
}

// staticCodeFor builds (and caches per lane count) the naive
// single-error-correcting code of Section V-A sized so its static table
// covers every physical row of the encoded group.
func staticCodeFor(cache map[int]*core.Code, layout core.GroupLayout, cell int, b uint64) (*core.Code, error) {
	if c, ok := cache[layout.Operands]; ok {
		return c, nil
	}
	dataBits := groupDataBits(layout)
	check := 1
	for iter := 0; iter < 64; iter++ {
		nRows := (dataBits + check + cell - 1) / cell
		wordBits := nRows*cell + 1 // +/-2 errors on the top row included
		a := core.MinimalSingleErrorA(wordBits, b)
		newCheck := bits.Len64(a*b - 1)
		if newCheck == check {
			table, err := core.NewStaticTable(a, wordBits)
			if err != nil {
				return nil, err
			}
			c := &core.Code{A: a, B: b, Table: table}
			cache[layout.Operands] = c
			return c, nil
		}
		check = newCheck
	}
	return nil, fmt.Errorf("accel: static code sizing did not converge for %d data bits", dataBits)
}

// debugReadHook, when non-nil, receives the pre-correction accumulator and
// post-correction value of every group read (white-box test instrumentation
// only; nil in production).
var debugReadHook func(g *group, raw, corrected core.Word, status core.Status)

// rowRead is one (plane, row) read of a group with everything but its
// noise draws resolved.
type rowRead struct {
	draw noise.RowDraw
	// ideal is the noiseless ADC output sum(level*count).
	ideal int32
	// stuck is the summed deviation of the row's stuck cells on active
	// columns.
	stuck int32
}

// resolve fills one row read from its aggregate and ideal output under the
// given plane mask.
func (g *group) resolve(m *MappedMatrix, sn *stats.BinomSnapshot, r int, mask []uint64, agg noise.RowAgg, ideal int, rr *rowRead) {
	stuck := 0
	for _, si := range g.stuck.row(r) {
		if mask[si.word]>>si.bit&1 == 1 {
			stuck += si.delta
		}
	}
	m.sampler.PrepareDraw(sn, agg, &rr.draw)
	rr.ideal, rr.stuck = int32(ideal), int32(stuck)
}

// read performs one group read under input bit plane `bit` of masks:
// per-row noisy ADC sampling, shift-and-add reduction, ECU correction (with
// re-reads on detected-uncorrectable errors if configured), decode, and
// lane split. reads must hold the group's precompute for the same masks.
// The returned lanes alias the arena and are valid until the next read.
//
// A dead plane (no active column) only tallies: with zero counts every
// row's aggregate is N = 0, Sigma = 0, Resid = +0, so it draws no variate,
// the mask gates every giant flicker and stuck delta, and each row reads
// exactly 0 — a clean codeword that decodes to zero lanes, remainder 0.
func (g *group) read(m *MappedMatrix, scr *Scratch, reads []rowRead, masks [][]uint64, bit int, rng *stats.FastRand, st *Stats) []uint64 {
	rows := g.arr.Rows
	if livePlanes(masks[bit:bit+1]) == 0 {
		st.RowReads += uint64(rows)
		if g.code != nil {
			st.Clean++
		}
		lanes := scr.lanesFor(g.layout.Operands)
		clear(lanes)
		return lanes
	}
	reads = reads[bit*rows : (bit+1)*rows]
	var acc core.Word
	var status core.Status
	for attempt := 0; ; attempt++ {
		acc = g.sampleRows(m, reads, masks[bit], rng, st)
		if g.code == nil {
			return g.layout.UnpackInto(scr.lanesFor(g.layout.Operands), acc)
		}
		var fixedW core.Word
		fixedW, status = g.code.Correct(acc)
		if status == core.StatusCorrected && !g.plausible(fixedW, scr) {
			// The corrected quotient violates the lane bound, so the
			// table hit was an aliased miscorrection (Section V-A's
			// "may make the error even worse"); the ECU treats it like
			// any other detected-uncorrectable error.
			fixedW, status = acc, core.StatusDetected
		}
		if status == core.StatusDetected && attempt < m.cfg.Retries {
			st.Retries++
			continue
		}
		if debugReadHook != nil {
			debugReadHook(g, acc, fixedW, status)
		}
		acc = fixedW
		break
	}
	switch status {
	case core.StatusClean:
		st.Clean++
	case core.StatusCorrected:
		st.Corrected++
	case core.StatusDetected:
		st.Detected++
	}
	q, rem := g.code.Decode(acc)
	if rem != 0 {
		st.Residual++
	}
	lanes := g.layout.UnpackInto(scr.lanesFor(g.layout.Operands), q)
	// Digital saturation: a lane can never legitimately exceed the maximum
	// partial sum, so the periphery clamps whatever residual-error garbage
	// a reverted read leaves behind.
	for i, lane := range lanes {
		if lane > g.maxLane {
			lanes[i] = g.maxLane
		}
	}
	return lanes
}

// sampleRows performs the per-row noisy ADC conversions of one group read
// (one plane's reads) and reduces them with the shift-and-add tree. The
// deterministic quantities come from precompute; only the noise draws
// happen here, in exactly the historical order (binomial+Gaussian core,
// then giant flickers, row-major).
func (g *group) sampleRows(m *MappedMatrix, reads []rowRead, mask []uint64, rng *stats.FastRand, st *Stats) core.Word {
	var acc core.Word
	cell := g.arr.BitsPerCell
	maxOut := g.arr.MaxOutput()
	flicker := m.cfg.Device.GiantFlickerProb
	for r := range reads {
		rr := &reads[r]
		dev := m.sampler.SampleDraw(rng, &rr.draw)
		for _, gi := range g.giant.row(r) {
			if mask[gi.word]>>gi.bit&1 == 1 && rng.Float64() < flicker {
				dev += gi.mag
			}
		}
		ideal := int(rr.ideal)
		s := ideal + int(math.Round(dev)) + int(rr.stuck)
		if s < 0 {
			s = 0
		}
		if s > maxOut {
			s = maxOut
		}
		st.RowReads++
		if s != ideal {
			st.RowErrors++
		}
		acc.AddShifted(uint64(s), uint(r*cell))
	}
	return acc
}

// plausible reports whether every lane of the decoded correction result
// lies within the physically reachable partial-sum range.
func (g *group) plausible(fixed core.Word, scr *Scratch) bool {
	q, _ := g.code.Decode(fixed)
	if q.BitLen() > g.layout.DataBits() {
		return false
	}
	for _, lane := range g.layout.UnpackInto(scr.plausFor(g.layout.Operands), q) {
		if lane > g.maxLane {
			return false
		}
	}
	return true
}

// MVM computes the noisy in-situ product W*x for a quantized input vector,
// returning dequantized float outputs in a fresh slice. scr is the
// caller-owned scratch arena.
func (m *MappedMatrix) MVM(x []float64, rng *stats.FastRand, scr *Scratch, st *Stats) []float64 {
	out := make([]float64, m.outDim)
	m.MVMInto(out, x, rng, scr, st)
	return out
}

// MVMInto is MVM writing into out (len must be the output dimension): the
// one-image call of the kernel, counting the caller in kernelWorkers. A
// warm arena makes the whole call allocation-free. While a core is idle,
// a helper precomputes the groups ahead of the caller's draws (see
// pipeline.go); the output, the stats and the rng's end state do not
// depend on whether it does.
func (m *MappedMatrix) MVMInto(out, x []float64, rng *stats.FastRand, scr *Scratch, st *Stats) {
	scr.beginKernel()
	defer scr.endKernel()
	img := [1]mvmImage{{out: out, x: x, rng: rng, scr: scr, st: st}}
	m.mvmBatch(img[:], nil)
}

// StorageOverhead returns the fraction of programmed cell bits that are
// not raw weight data — check bits, lane guard bits, and slice padding.
// The paper's Section V-A/VIII-A comparisons are in these terms: Static16
// spends ~6 check bits per 16-bit operand (~38%), the grouped ABN codes
// 7-10 bits per 128 (~7%).
func (m *MappedMatrix) StorageOverhead() float64 {
	dataBits := m.outDim * m.inDim * m.cfg.WeightBits
	if m.cfg.Encoding == EncodingDifferential {
		dataBits *= 2
	}
	stored := 0
	for _, ch := range m.chunks {
		cols := ch.colHi - ch.colLo
		for _, g := range ch.groups {
			stored += g.arr.Rows * m.cfg.Device.BitsPerCell * cols
		}
	}
	return float64(stored)/float64(dataBits) - 1
}

// NumGroups returns the total coded group count (ECU instances needed).
func (m *MappedMatrix) NumGroups() int {
	n := 0
	for _, ch := range m.chunks {
		n += len(ch.groups)
	}
	return n
}

// groupAt returns the i-th group in read order (chunk by chunk) and its
// chunk index. Every chunk holds the same number of groups (one per
// GroupOps internal output rows), so the position splits evenly.
func (m *MappedMatrix) groupAt(i int) (*group, int) {
	per := len(m.chunks[0].groups)
	return m.chunks[i/per].groups[i%per], i / per
}

// Arrays returns every crossbar array backing this matrix, one per coded
// group, so lifetime fault campaigns can inject stuck-at and drift faults
// into the live substrate. Callers must hold the owning layer's write lock
// (Engine.WithArrays) while mutating them.
func (m *MappedMatrix) Arrays() []*crossbar.Array {
	out := make([]*crossbar.Array, 0, m.NumGroups())
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			out = append(out, g.arr)
		}
	}
	return out
}

// ScrubTarget is one coded group exposed to the patrol scrubber: the array
// to probe and repair, the code whose correction capability decides when a
// row must be spared, and the verify-miss probabilities the closed-loop
// re-programming path draws against.
type ScrubTarget struct {
	Arr *crossbar.Array
	// Code is nil for the NoECC baseline (the scrubber then spares on any
	// uncorrectable deviation, since there is no ECU to lean on).
	Code *core.Code
	// PulseFail is the per-level single-pulse verify-miss probability.
	PulseFail []float64
}

// ScrubTargets returns every coded group of this matrix in deterministic
// (chunk, group) order. Callers must hold the owning layer's write lock
// (Engine.WithScrubTargets) while probing or mutating the arrays.
func (m *MappedMatrix) ScrubTargets() []ScrubTarget {
	out := make([]ScrubTarget, 0, m.NumGroups())
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			out = append(out, ScrubTarget{Arr: g.arr, Code: g.code, PulseFail: m.pulseFail})
		}
	}
	return out
}

// VerifyStats returns the accumulated program-verify accounting of the
// mapping pass (pulses, convergence histogram, giveups).
func (m *MappedMatrix) VerifyStats() crossbar.VerifyTally {
	return m.verify
}

// Codes returns the distinct code of every group, for inspection and the
// code-anatomy example.
func (m *MappedMatrix) Codes() []*core.Code {
	var out []*core.Code
	for _, ch := range m.chunks {
		for _, g := range ch.groups {
			out = append(out, g.code)
		}
	}
	return out
}
