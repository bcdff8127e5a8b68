package accel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/stats"
)

// batchKernel is the scratch shared across the images of one batched MVM:
// the flat level-major count buffer and accumulators of the fused
// multi-image bit-plane kernel, a small per-image gather slice, and the
// MVM's binomial table snapshot. One batchKernel belongs to one Session
// (coordinator goroutine); the per-image state lives in ordinary per-lane
// Scratch arenas.
type batchKernel struct {
	counts []int
	accs   []noise.AggAccum
	sets   [][][]uint64
	sn     stats.BinomSnapshot
}

func (k *batchKernel) countsFor(n int) []int {
	if cap(k.counts) < n {
		k.counts = make([]int, n)
	}
	return k.counts[:n]
}

func (k *batchKernel) accsFor(n int) []noise.AggAccum {
	if cap(k.accs) < n {
		k.accs = make([]noise.AggAccum, n)
	}
	return k.accs[:n]
}

func (k *batchKernel) setsFor(n int) [][][]uint64 {
	if cap(k.sets) < n {
		k.sets = make([][][]uint64, n)
	}
	return k.sets[:n]
}

// precomputeBatch is group.precompute for B images at once, over column
// chunk c: one walk of each row's level list and fault-shaped masks feeds
// all B images' plane aggregations (the masks differ per image; the level
// lists, per-level noise terms, and CDF tables are shared). Each image's
// row reads land in ring slot 0 of its own Scratch arena exactly as the
// serial precompute would have left them, bit for bit, so group.read runs
// unchanged on top.
func (g *group) precomputeBatch(m *MappedMatrix, c int, subs []*Scratch, kn *batchKernel) {
	rows := g.arr.Rows
	planes := len(subs[0].masks[c])
	stride := len(subs) * planes
	counts := kn.countsFor(g.arr.NumLevels() * stride)
	accs := kn.accsFor(stride)
	sets := kn.setsFor(len(subs))
	for i, sub := range subs {
		sets[i] = sub.masks[c]
		sub.readsFor(0, planes*rows)
	}
	for r := 0; r < rows; r++ {
		g.arr.ActiveCountsBatch(r, sets, counts)
		lv := g.arr.LevelList(r)
		m.sampler.AccumulateRowLevelsBatch(lv, counts, accs)
		j := 0
		for _, sub := range subs {
			for b, mask := range sub.masks[c] {
				agg, t := m.sampler.FinishAccum(&accs[j])
				g.resolve(m, &kn.sn, r, mask, agg, t, &sub.slots[0][b*rows+r])
				j++
			}
		}
	}
}

// MVMBatchInto evaluates W*x for B images in one pass over the mapped
// arrays. Per image it is bit-identical to MVMInto with that image's rng
// and scratch: the deterministic precompute is fused across the batch
// (touching no RNG), while the stochastic row reads run per image, in
// batch order within each (chunk, group), each on its own rng — so every
// image's draw sequence is exactly its serial sequence. outs/xs/rngs/subs/
// sts are aligned per image; each outs[i] must have the output dimension
// and each subs[i] is that image's private arena. kn is the shared batch
// kernel scratch. Warm arenas make the whole call allocation-free.
func (m *MappedMatrix) MVMBatchInto(outs, xs [][]float64, rngs []*stats.FastRand, subs []*Scratch, sts []*Stats, kn *batchKernel) {
	for i, x := range xs {
		if len(x) != m.inDim {
			panic(fmt.Sprintf("accel: batch input %d length %d, want %d", i, len(x), m.inDim))
		}
		if len(outs[i]) != m.outDim {
			panic(fmt.Sprintf("accel: batch output %d length %d, want %d", i, len(outs[i]), m.outDim))
		}
	}
	for i, sub := range subs {
		sub.loadInput(m, xs[i])
	}
	kn.sn = m.sampler.BinomSnapshot()
	for c, ch := range m.chunks {
		for _, g := range ch.groups {
			g.precomputeBatch(m, c, subs, kn)
			for i, sub := range subs {
				masks := sub.masks[c]
				for b := range masks {
					sub.accumulate(g, g.read(m, sub, sub.slots[0], masks, b, rngs[i], sts[i]), b)
				}
			}
		}
		for _, sub := range subs {
			sub.endChunk(m, c)
		}
	}
	for i, out := range outs {
		subs[i].dequantize(m, out)
	}
}

// batchLane is one image slot of a session's batch arena: its noise RNG,
// its private scratch arena, and its stats — the per-image state a serial
// Session keeps once, replicated per batch position so image i's evaluation
// stays a pure function of (engine, streams[i]) regardless of batchmates.
type batchLane struct {
	src   *rand.PCG
	rng   *stats.FastRand
	scr   *Scratch
	stats Stats
	layer []Stats
}

// BatchArena is the batch-shaped growth of the session scratch arena:
// per-image lanes plus the shared batch-kernel scratch and the compaction
// buffers of the batched slot dispatch. It grows with the largest batch
// seen and never shrinks, so steady-state batched traffic allocates
// nothing.
type BatchArena struct {
	lanes []*batchLane
	kn    batchKernel

	// per-call gather state (valid during one batched slot dispatch)
	outs  [][]float64
	errs  []error
	vxs   [][]float64
	vouts [][]float64
	vrngs []*stats.FastRand
	vsubs []*Scratch
	vsts  []*Stats
	vj    []int
	pre   []Stats
}

// lanesFor grows the arena to at least n lanes.
func (ba *BatchArena) lanesFor(s *Session, n int) []*batchLane {
	for len(ba.lanes) < n {
		src := stats.SubPCG(s.engine.cfg.Seed, 0)
		ba.lanes = append(ba.lanes, &batchLane{
			src:   src,
			rng:   stats.NewFastRand(src),
			scr:   NewScratch(),
			layer: make([]Stats, len(s.engine.slots)),
		})
	}
	return ba.lanes[:n]
}

func (ba *BatchArena) outsFor(n int) [][]float64 {
	if cap(ba.outs) < n {
		ba.outs = make([][]float64, n)
	}
	ba.outs = ba.outs[:n]
	for i := range ba.outs {
		ba.outs[i] = nil
	}
	return ba.outs
}

func (ba *BatchArena) errsFor(n int) []error {
	if cap(ba.errs) < n {
		ba.errs = make([]error, n)
	}
	ba.errs = ba.errs[:n]
	for i := range ba.errs {
		ba.errs[i] = nil
	}
	return ba.errs
}

// ensureBatch lazily builds the session's batch machinery: the lockstep
// forward batcher over per-lane network clones, and the batch arena.
func (s *Session) ensureBatch() {
	if s.fb == nil {
		e := s.engine
		s.fb = nn.NewForwardBatcher(e.InferenceNet, e.Layers())
		s.ba = &BatchArena{}
	}
}

// ForwardBatch runs one noisy inference per input, batched: the images
// advance in lockstep through the network, and at every mapped layer all
// of them are evaluated in a single multi-image pass over the shared
// arrays (one level-list walk per row per batch). streams[i] seeds image
// i's noise lane exactly as Reseed(streams[i]) would a serial session, so
// outs[i] is bit-identical to a serial Reseed+Forward of the same stream —
// the batch-size-invariance contract. errs[i] is non-nil (and outs[i] nil)
// when image i alone failed (e.g. a shape mismatch); batchmates are
// unaffected. Outputs and slices are valid until the session's next
// ForwardBatch. The caller owns the session; concurrent use is not
// allowed, but engine mutators (Remap, Retune, fault injection, scrub) may
// run concurrently as with serial Forward.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("accel: %d inputs, %d streams", len(xs), len(streams)))
	}
	s.ensureBatch()
	for i, lane := range s.ba.lanesFor(s, len(xs)) {
		stats.ReseedSub(lane.src, s.engine.cfg.Seed, streams[i])
	}
	s.scr.beginKernel()
	defer s.scr.endKernel()
	return s.fb.Run(xs, s.batchMVM)
}

// batchMVM is the coordinator-side multi-image layer dispatch behind
// ForwardBatch: all stochastic draws happen here, on the caller's
// goroutine, image-ordered — never on the lane goroutines.
func (s *Session) batchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	sl := s.engine.slot(layer)
	ba := s.ba
	if sl == nil {
		errs := ba.errsFor(len(idx))
		for j := range errs {
			errs[j] = fmt.Errorf("accel: layer %d is not mapped", layer)
		}
		return nil, errs
	}
	outs := ba.outsFor(len(idx))
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	if sl.fallback {
		for j, x := range xs {
			lane := ba.lanes[idx[j]]
			ls := &lane.layer[layer]
			pre := *ls
			ls.SoftMVMs++
			outs[j] = sl.soft.MVM(x)
			lane.stats.Merge(ls.Diff(pre))
		}
		return outs, nil
	}
	m := sl.m
	// Validate per image so one malformed input degrades to a per-image
	// error instead of failing its batchmates.
	var errs []error
	ba.vxs, ba.vouts, ba.vrngs, ba.vsubs, ba.vsts = ba.vxs[:0], ba.vouts[:0], ba.vrngs[:0], ba.vsubs[:0], ba.vsts[:0]
	ba.vj, ba.pre = ba.vj[:0], ba.pre[:0]
	for j, x := range xs {
		if len(x) != m.inDim {
			if errs == nil {
				errs = ba.errsFor(len(idx))
			}
			errs[j] = fmt.Errorf("accel: input length %d, want %d", len(x), m.inDim)
			continue
		}
		lane := ba.lanes[idx[j]]
		ls := &lane.layer[layer]
		ba.vj = append(ba.vj, j)
		ba.pre = append(ba.pre, *ls)
		ba.vxs = append(ba.vxs, x)
		ba.vouts = append(ba.vouts, lane.scr.outFor(m.outDim))
		ba.vrngs = append(ba.vrngs, lane.rng)
		ba.vsubs = append(ba.vsubs, lane.scr)
		ba.vsts = append(ba.vsts, ls)
	}
	if len(ba.vxs) > 0 {
		m.MVMBatchInto(ba.vouts, ba.vxs, ba.vrngs, ba.vsubs, ba.vsts, &ba.kn)
	}
	for k, j := range ba.vj {
		lane := ba.lanes[idx[j]]
		ls := &lane.layer[layer]
		ls.BatchMVMs++
		lane.stats.Merge(ls.Diff(ba.pre[k]))
		outs[j] = ba.vouts[k]
	}
	return outs, errs
}

// MVMLayerBatch is MVMLayer for several batch lanes at once — the unit the
// replica router batches at. idx[j] selects the lane evaluating image j,
// streams[j] reseeds that lane (the caller derives the per-(image, layer)
// stream exactly as its serial path would), and outs[j]/diffs[j] receive
// the output and this call's ECU stats. Outputs alias each lane's arena
// and are valid until that lane's next MVM. Panics if the layer is not
// mapped, like MVMLayer.
func (s *Session) MVMLayerBatch(layer int, idx []int, streams []uint64, xs [][]float64, outs [][]float64, diffs []Stats) {
	sl := s.engine.slot(layer)
	if sl == nil {
		panic(fmt.Sprintf("accel: layer %d is not mapped", layer))
	}
	s.ensureBatch()
	ba := s.ba
	high := 0
	for _, i := range idx {
		if i >= high {
			high = i + 1
		}
	}
	ba.lanesFor(s, high)
	for j, i := range idx {
		stats.ReseedSub(ba.lanes[i].src, s.engine.cfg.Seed, streams[j])
	}
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	if sl.fallback {
		for j, x := range xs {
			lane := ba.lanes[idx[j]]
			ls := &lane.layer[layer]
			pre := *ls
			ls.SoftMVMs++
			outs[j] = sl.soft.MVM(x)
			diffs[j] = ls.Diff(pre)
			lane.stats.Merge(diffs[j])
		}
		return
	}
	m := sl.m
	s.scr.beginKernel()
	defer s.scr.endKernel()
	ba.vouts, ba.vrngs, ba.vsubs, ba.vsts, ba.pre = ba.vouts[:0], ba.vrngs[:0], ba.vsubs[:0], ba.vsts[:0], ba.pre[:0]
	for j := range xs {
		lane := ba.lanes[idx[j]]
		ls := &lane.layer[layer]
		ba.pre = append(ba.pre, *ls)
		ba.vouts = append(ba.vouts, lane.scr.outFor(m.outDim))
		ba.vrngs = append(ba.vrngs, lane.rng)
		ba.vsubs = append(ba.vsubs, lane.scr)
		ba.vsts = append(ba.vsts, ls)
	}
	m.MVMBatchInto(ba.vouts, xs, ba.vrngs, ba.vsubs, ba.vsts, &ba.kn)
	for j := range xs {
		lane := ba.lanes[idx[j]]
		ls := &lane.layer[layer]
		ls.BatchMVMs++
		diffs[j] = ls.Diff(ba.pre[j])
		lane.stats.Merge(diffs[j])
		outs[j] = ba.vouts[j]
	}
}

// DrainBatchStats returns lane i's accumulated stats since the last drain
// and resets them (per-layer tallies included) — the batched counterpart
// of DrainStats, letting a serving worker attribute ECU activity to the
// individual images of a coalesced batch.
func (s *Session) DrainBatchStats(i int) Stats {
	s.ensureBatch()
	lane := s.ba.lanesFor(s, i+1)[i]
	st := lane.stats
	lane.stats = Stats{}
	for l := range lane.layer {
		lane.layer[l] = Stats{}
	}
	return st
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats into a
// caller-owned map (cleared first), mirroring DrainLayerStatsInto. Drain
// it before DrainBatchStats for the same lane — DrainBatchStats resets
// the per-layer tallies too.
func (s *Session) DrainBatchLayerStatsInto(i int, out map[int]Stats) {
	s.ensureBatch()
	lane := s.ba.lanesFor(s, i+1)[i]
	clear(out)
	for l := range lane.layer {
		if lane.layer[l] != (Stats{}) {
			out[l] = lane.layer[l]
			lane.layer[l] = Stats{}
		}
	}
}

// Close releases the session's batch machinery (parked lane goroutines).
// A session that never called ForwardBatch has nothing to release. The
// serial path stays usable after Close; the batched path re-arms lazily.
func (s *Session) Close() {
	if s.fb != nil {
		s.fb.Close()
		s.fb = nil
		s.ba = nil
	}
}

// ForwardBatch is the one-shot convenience over a throwaway session: map
// callers that do not hold a session can still run one batched pass.
// outs[i] is bit-identical to a serial session's Reseed(streams[i]) +
// Forward(xs[i]).
func (e *Engine) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	s := e.NewSession(0)
	defer s.Close()
	return s.ForwardBatch(xs, streams)
}
