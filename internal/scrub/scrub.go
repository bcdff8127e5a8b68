// Package scrub implements the proactive half of the reliability story: a
// background patrol scrubber that walks every mapped crossbar array in
// deterministic order, drives one-hot test vectors through each coded
// column, compares what the rows read back against the programmed targets,
// and repairs ahead of failure — re-programming drifted cells through the
// closed-loop verify path and permanently sparing rows whose stuck-at
// population the layer's AN/ABN code can no longer correct.
//
// The PR-2 recovery ladder (breaker → retry → remap → degrade) reacts to
// detected-uncorrectable reads after accuracy is already at risk; the
// scrubber removes the error sources while they are still correctable, so
// the ladder's rungs fire later or never. Online detect-and-repair schemes
// for ReRAM crossbars show exactly this ordering sustains accuracy far
// longer than reactive repair alone.
package scrub

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/stats"
)

// passSeedStride separates the RNG streams of successive patrol passes over
// one layer: the layer index occupies the low bits, the pass count the high
// ones (the same layout Engine.Remap uses for its epochs).
const passSeedStride = uint64(1) << 40

// scrubSeedSalt separates the scrubber's verify-draw streams from every
// other consumer of the engine seed (mapping-time fault injection, session
// noise, retry reseeds).
const scrubSeedSalt = uint64(0x5c) << 48

// Report is the outcome of one patrol pass over one layer.
type Report struct {
	Layer int
	// Pass is the 1-based patrol pass count for this layer.
	Pass uint64
	// RowsPatrolled is the number of (array, row) word lines walked.
	RowsPatrolled int
	// RowsRepaired counts distinct rows whose deviation was removed by
	// re-programming (drift healed, or a transiently mis-verified cell
	// rewritten).
	RowsRepaired int
	// RowsSpared counts rows retired onto spare word lines because they
	// host stuck-at damage re-programming could not remove.
	RowsSpared int
	// RowsUncorrectable counts damaged rows left in place with the spare
	// pool empty AND the group code no longer correcting their column —
	// silent-corruption risk the reactive ladder must backstop.
	RowsUncorrectable int
	// CellsReprogrammed is the number of deviating cells rewritten.
	CellsReprogrammed int
	// Verify accumulates the closed-loop programming accounting of every
	// repair and sparing in this pass (and, from Reprogram, of the remap).
	Verify crossbar.VerifyTally
}

// Clean reports whether the pass left nothing uncorrectable — the verify
// gate a detached replica must pass before rejoining its set.
func (r Report) Clean() bool { return r.RowsUncorrectable == 0 }

// Totals is the lifetime accounting of a Scrubber.
type Totals struct {
	Passes            uint64
	RowsPatrolled     uint64
	RowsRepaired      uint64
	RowsSpared        uint64
	RowsUncorrectable uint64
	CellsReprogrammed uint64
	Verify            crossbar.VerifyTally
}

// Merge folds another accounting into t — the serve patroller aggregates
// one scrubber per replica into a single operator-facing view.
func (t *Totals) Merge(o Totals) {
	t.Passes += o.Passes
	t.RowsPatrolled += o.RowsPatrolled
	t.RowsRepaired += o.RowsRepaired
	t.RowsSpared += o.RowsSpared
	t.RowsUncorrectable += o.RowsUncorrectable
	t.CellsReprogrammed += o.CellsReprogrammed
	t.Verify.Merge(o.Verify)
}

// add folds one pass report into the totals.
func (t *Totals) add(r Report) {
	t.Passes++
	t.RowsPatrolled += uint64(r.RowsPatrolled)
	t.RowsRepaired += uint64(r.RowsRepaired)
	t.RowsSpared += uint64(r.RowsSpared)
	t.RowsUncorrectable += uint64(r.RowsUncorrectable)
	t.CellsReprogrammed += uint64(r.CellsReprogrammed)
	t.Verify.Merge(r.Verify)
}

// Scrubber patrols the mapped layers of one engine. Methods are not safe
// for concurrent use — drive the scrubber from a single goroutine (the
// serve patroller does); array access is serialized against live traffic
// and remaps by the engine's per-layer write lock, which PatrolLayer holds
// for the duration of a pass.
type Scrubber struct {
	eng *accel.Engine
	// verifyIters bounds the closed-loop re-programming of each repaired
	// cell; seed drives its verify-comparator draws, so passes are
	// deterministic given (seed, layer order, pass count). Both are the
	// engine's own: every copy repairs under its own settings.
	verifyIters int
	seed        uint64
	order       []int
	cursor      int
	pass        map[int]uint64
	totals      Totals
}

// New builds a scrubber over the engine's mapped layers. Repairs program
// under the engine's VerifyIters (5 when it is zero: the scrubber always
// verifies, even over blind-written arrays) and draw from its Seed.
func New(eng *accel.Engine) *Scrubber {
	cfg := eng.Config()
	iters := cfg.VerifyIters
	if iters <= 0 {
		iters = 5
	}
	return &Scrubber{
		eng:         eng,
		verifyIters: iters,
		seed:        cfg.Seed,
		order:       eng.Layers(),
		pass:        make(map[int]uint64),
	}
}

// Layers returns the deterministic patrol order.
func (s *Scrubber) Layers() []int { return append([]int(nil), s.order...) }

// Totals returns the lifetime accounting.
func (s *Scrubber) Totals() Totals { return s.totals }

// Next patrols the next layer in the deterministic rotation and advances
// the cursor, so a patroller that runs one layer per idle slot still covers
// every layer in bounded time.
func (s *Scrubber) Next() (Report, error) {
	if len(s.order) == 0 {
		return Report{}, fmt.Errorf("scrub: no mapped layers")
	}
	layer := s.order[s.cursor]
	s.cursor = (s.cursor + 1) % len(s.order)
	return s.PatrolLayer(layer)
}

// PatrolAll runs one patrol pass over every mapped layer in order.
func (s *Scrubber) PatrolAll() ([]Report, error) {
	out := make([]Report, 0, len(s.order))
	for _, layer := range s.order {
		rep, err := s.PatrolLayer(layer)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// PatrolLayer runs one patrol pass over one layer: every coded group's
// array is walked column by column under one-hot test vectors, deviating
// cells are re-programmed through the verify path, and rows whose residual
// (stuck) deviation the group code cannot correct are spared. The layer's
// write lock is held throughout, exactly like a Remap.
func (s *Scrubber) PatrolLayer(layer int) (Report, error) {
	s.pass[layer]++
	rep := Report{Layer: layer, Pass: s.pass[layer]}
	rng := stats.SubRNG(s.seed, scrubSeedSalt^(uint64(layer)+s.pass[layer]*passSeedStride))
	err := s.eng.WithScrubTargets(layer, func(targets []accel.ScrubTarget) {
		for _, tgt := range targets {
			s.patrolArray(tgt, rng, &rep)
		}
	})
	if err != nil {
		return rep, err
	}
	s.totals.add(rep)
	return rep, nil
}

// Reprogram remaps one layer of eng onto spare arrays and verifies the new
// arrays with one patrol pass under the engine's own settings: the repair
// cycle of a replica's spatial failover and of a drained shard. The
// report's Verify tally holds the remap's own write-verify accounting (the
// whole layer went through the closed-loop path, drawing on the engine's
// seed) plus the patrol's. Engine.Remap keeps the layer's software-fallback
// flag, so a degraded or drained layer returns to crossbars only on the
// ladder's or the operator's call (Rejoin), never as a side effect of a
// repair.
func Reprogram(eng *accel.Engine, layer int) (Report, error) {
	if err := eng.Remap(layer); err != nil {
		return Report{}, err
	}
	remap := eng.Mapped(layer).VerifyStats()
	rep, err := New(eng).PatrolLayer(layer)
	rep.Verify.Merge(remap)
	return rep, err
}

// patrolArray walks one coded group. The probe unit is a column: each
// encoded operand-group word lies bit-sliced down one column, so a one-hot
// input mask on column c makes every row's ADC output exactly the cell
// level, and the shift-and-add reduction of those outputs reassembles the
// stored codeword — the cheapest test vector that exercises the real read
// path end to end.
func (s *Scrubber) patrolArray(tgt accel.ScrubTarget, rng *rand.Rand, rep *Report) {
	arr := tgt.Arr
	rep.RowsPatrolled += arr.Rows
	repairedRow := make(map[int]bool)
	sparedRow := make(map[int]bool)
	uncorrRow := make(map[int]bool)
	for c := 0; c < arr.Cols; c++ {
		devRows := deviatingRows(arr, c)
		if len(devRows) == 0 {
			continue
		}
		// Repair: rewrite every deviating cell to its programmed target
		// through the closed-loop path. Drifted cells heal; stuck cells
		// accept the target but stay pinned (the verify loop gives up).
		for _, r := range devRows {
			pulses, ok := arr.ProgramVerify(r, c, arr.Programmed(r, c), s.verifyIters, tgt.PulseFail, rng)
			rep.Verify.Note(pulses, ok)
			rep.CellsReprogrammed++
		}
		residual := deviatingRows(arr, c)
		residualSet := make(map[int]bool, len(residual))
		for _, r := range residual {
			residualSet[r] = true
		}
		for _, r := range devRows {
			if !residualSet[r] {
				repairedRow[r] = true
			}
		}
		if len(residual) == 0 {
			continue
		}
		// Residual deviation is stuck-at damage, and under live noise even
		// one stuck cell spends the code's single-error margin — the next
		// transient error on the same word is uncorrectable. So rows
		// hosting stuck damage are retired while spares last ("repair
		// ahead of failure"); only once the pool is dry does the layer's
		// code decide whether the column is still under ECU cover or the
		// row is genuinely uncorrectable.
		for _, r := range residual {
			if sparedRow[r] || uncorrRow[r] {
				continue
			}
			if arr.SpareRowsFree() > 0 {
				tally, ok := arr.SpareRow(r, s.verifyIters, tgt.PulseFail, rng)
				rep.Verify.Merge(tally)
				if ok {
					rep.RowsSpared++
					sparedRow[r] = true
					continue
				}
			}
			if !columnCorrectable(arr, tgt.Code, c) {
				rep.RowsUncorrectable++
				uncorrRow[r] = true
			}
		}
	}
	rep.RowsRepaired += len(repairedRow)
}

// deviatingRows returns the rows whose effective level differs from the
// programmed target in column c, ascending.
func deviatingRows(arr *crossbar.Array, c int) []int {
	var out []int
	for r := 0; r < arr.Rows; r++ {
		if arr.Level(r, c) != arr.Programmed(r, c) {
			out = append(out, r)
		}
	}
	return out
}

// columnCorrectable reports whether the code corrects column c's one-hot
// probe read back to the stored word. With no code (the NoECC baseline)
// any residual deviation is uncorrectable by definition.
func columnCorrectable(arr *crossbar.Array, code *core.Code, c int) bool {
	if code == nil {
		return false
	}
	var eff, prog core.Word
	cell := arr.BitsPerCell
	for r := 0; r < arr.Rows; r++ {
		if lv := arr.Level(r, c); lv != 0 {
			if !eff.AddShifted(uint64(lv), uint(r*cell)) {
				return false
			}
		}
		if lv := arr.Programmed(r, c); lv != 0 {
			if !prog.AddShifted(uint64(lv), uint(r*cell)) {
				return false
			}
		}
	}
	fixed, status := code.Correct(eff)
	switch status {
	case core.StatusClean:
		// A nonzero deviation that still reads as a codeword is an aliased
		// word — worse than detected, because the ECU will trust it.
		return fixed == prog
	case core.StatusCorrected:
		return fixed == prog
	default:
		return false
	}
}
