package accel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/nn"
	"repro/internal/stats"
)

// batchKernel is the scratch of group.precompute: the flat level-major
// count buffer, a small per-image gather slice and each image's live
// planes. Each goroutine that precomputes owns one: a Session for its
// multi-image MVMs, a Scratch for its one-image MVMs, and that Scratch's
// pipeline helper.
type batchKernel struct {
	counts []int
	sets   [][][]uint64
	live   []uint64
}

func (k *batchKernel) countsFor(n int) []int {
	if cap(k.counts) < n {
		k.counts = make([]int, n)
	}
	return k.counts[:n]
}

func (k *batchKernel) setsFor(n int) ([][][]uint64, []uint64) {
	if cap(k.sets) < n {
		k.sets = make([][][]uint64, n)
		k.live = make([]uint64, n)
	}
	return k.sets[:n], k.live[:n]
}

// precompute runs the deterministic half of every row read of this group
// for each image's input masks over column chunk c: the fused active
// counts, their noise aggregates resolved for the draw loop, the ideal ADC
// outputs and the stuck-cell deltas. One walk of each row's level masks
// feeds every image's planes (the masks differ per image; the level lists,
// per-level noise terms and CDF tables are shared). Each image's row reads
// land in ring slot `slot` of its own Scratch arena, indexed plane*rows+row.
// Dead planes are left unresolved: group.read never looks at them. It
// touches no RNG, so running it ahead of the draws (on another goroutine,
// even), and reusing it across ECU retry re-reads, cannot move a draw. A
// lone image is a batch of one.
func (g *group) precompute(m *MappedMatrix, c int, imgs []mvmImage, slot int, sn *stats.BinomSnapshot, kn *batchKernel) {
	rows := g.arr.Rows
	planes := len(imgs[0].scr.masks[c])
	stride := len(imgs) * planes
	sets, live := kn.setsFor(len(imgs))
	var union uint64
	for i := range imgs {
		sets[i] = imgs[i].scr.masks[c]
		live[i] = livePlanes(sets[i])
		union |= live[i]
		imgs[i].scr.readsFor(slot, planes*rows)
	}
	if union == 0 {
		return
	}
	counts := kn.countsFor(g.arr.NumLevels() * stride)
	for r := 0; r < rows; r++ {
		g.arr.ActiveCountsBatch(r, sets, counts)
		lv := g.arr.LevelList(r)
		for i := range imgs {
			reads := imgs[i].scr.slots[slot]
			for b, mask := range sets[i] {
				if live[i]>>b&1 == 0 {
					continue
				}
				agg, ideal := m.sampler.AggregateLevels(lv, counts, stride, i*planes+b)
				g.resolve(m, sn, r, mask, agg, ideal, &reads[b*rows+r])
			}
		}
	}
}

// mvmImage is one image of a kernel call: its input and output, its noise
// rng, its private scratch arena, and the stats its reads tally into.
type mvmImage struct {
	out, x []float64
	rng    *stats.FastRand
	scr    *Scratch
	st     *Stats
}

// mvmBatch is the noisy-MVM kernel: it evaluates W*x for every image in
// one pass over the mapped arrays. Per image the result is a function of
// that image's input, rng and arena alone: the deterministic precompute
// touches no RNG, and the stochastic row reads run per image, in image
// order within each (chunk, group), each on its own rng, so every image's
// draw sequence is exactly its one-image sequence. One image fills its
// ring through the pipeline (a helper precomputes groups ahead of the
// draws while a core is idle, see pipeline.go); several fill ring slot 0
// inline, one group at a time, and count in BatchMVMs. Both run the same
// group.precompute. Each out must have the output dimension; kn is the
// multi-image precompute scratch (unused for one image).
// Warm arenas make the whole call allocation-free. The caller counts
// itself in kernelWorkers.
func (m *MappedMatrix) mvmBatch(imgs []mvmImage, kn *batchKernel) {
	for i := range imgs {
		if len(imgs[i].x) != m.inDim {
			panic(fmt.Sprintf("accel: input length %d, want %d", len(imgs[i].x), m.inDim))
		}
		if len(imgs[i].out) != m.outDim {
			panic(fmt.Sprintf("accel: output length %d, want %d", len(imgs[i].out), m.outDim))
		}
		imgs[i].scr.loadInput(m, imgs[i].x)
	}
	lead := imgs[0].scr
	lead.sn = m.sampler.BinomSnapshot()
	pipe := len(imgs) == 1
	if pipe {
		lead.startPipeline(m)
		defer lead.endPipeline()
	}
	gi := 0
	for c, ch := range m.chunks {
		for _, g := range ch.groups {
			var reads []rowRead
			if pipe {
				reads = lead.awaitGroup(gi)
			} else {
				g.precompute(m, c, imgs, 0, &lead.sn, kn)
			}
			for i := range imgs {
				im := &imgs[i]
				if !pipe {
					reads = im.scr.slots[0]
				}
				masks := im.scr.masks[c]
				for b := range masks {
					im.scr.accumulate(g, g.read(m, im.scr, reads, masks, b, im.rng, im.st), b)
				}
			}
			if pipe {
				lead.releaseGroup(gi)
			}
			gi++
		}
		for i := range imgs {
			imgs[i].scr.endChunk(m, c)
		}
	}
	for i := range imgs {
		imgs[i].scr.dequantize(m, imgs[i].out)
		if !pipe {
			imgs[i].st.BatchMVMs++
		}
	}
}

// batchLane is one image slot of a session: its noise RNG, its private
// scratch arena, and its stats. Lane 0 is the session's serial stream;
// lane i of a batched pass keeps image i's evaluation a pure function of
// (engine, streams[i]) regardless of batchmates.
type batchLane struct {
	src   *rand.PCG
	rng   *stats.FastRand
	scr   *Scratch
	stats Stats   // lane totals (lane 0 keeps its in Session.Stats)
	layer []Stats // per-layer tallies, by layer index
	diff  Stats   // the lane's stats of the current layer call
}

// newLane builds a lane seeded to stream seed.
func (s *Session) newLane(seed uint64) batchLane {
	src := stats.SubPCG(s.engine.cfg.Seed, seed)
	return batchLane{src: src, rng: stats.NewFastRand(src), scr: NewScratch(),
		layer: make([]Stats, len(s.engine.slots))}
}

// lanesFor grows the session to at least n lanes. Lanes never shrink, so
// steady-state traffic allocates nothing.
func (s *Session) lanesFor(n int) []batchLane {
	for len(s.lanes) < n {
		s.lanes = append(s.lanes, s.newLane(0))
	}
	return s.lanes[:n]
}

// laneStats returns lane i's totals.
func (s *Session) laneStats(i int) *Stats {
	if i == 0 {
		return &s.Stats
	}
	return &s.lanes[i].stats
}

// walk runs one lockstep forward pass of xs over lanes 0..len(xs)-1. Lane
// 0's arena counts the session in kernelWorkers for the whole pass, so the
// digital layers between MVMs do not read as an idle core.
func (s *Session) walk(xs []*nn.Tensor) ([]*nn.Tensor, []error) {
	scr := s.lanes[0].scr
	scr.beginKernel()
	defer scr.endKernel()
	return s.fb.Run(xs, s.batchMVM)
}

// ForwardBatch runs one noisy inference per input, batched: the images
// advance in lockstep through the network, and at every mapped layer all
// of them are evaluated in a single multi-image pass over the shared
// arrays (one level-list walk per row per batch). streams[i] reseeds lane
// i exactly as Reseed(streams[i]) would the serial stream, so outs[i] is
// bit-identical to Reseed+Forward of the same stream — the
// batch-size-invariance contract. Lane 0 is the serial stream, so a later
// Forward without Reseed continues from streams[0]. errs[i] is non-nil
// (and outs[i] nil) when image i alone failed (e.g. a shape mismatch);
// batchmates are unaffected. Outputs and slices are valid until the
// session's next pass. The caller owns the session; concurrent use is not
// allowed, but engine mutators (Remap, Retune, fault injection, scrub) may
// run concurrently.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("accel: %d inputs, %d streams", len(xs), len(streams)))
	}
	for i := range s.lanesFor(len(xs)) {
		stats.ReseedSub(s.lanes[i].src, s.engine.cfg.Seed, streams[i])
	}
	return s.walk(xs)
}

// batchMVM evaluates one mapped layer for lanes idx on inputs xs: the
// batched-MVM callback of every walk and the body of MVMLayer and
// MVMLayerBatch. All stochastic draws happen here, on the caller's
// goroutine, lane by lane on each lane's own rng. Each lane's diff holds
// its stats of this call, also merged into its tallies. An unmapped layer
// or a wrong-length input fails just the images concerned.
func (s *Session) batchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	outs := zeroed(&s.outs, len(idx))
	var errs []error
	fail := func(j int, err error) {
		if errs == nil {
			errs = zeroed(&s.errs, len(idx))
		}
		errs[j] = err
	}
	for _, i := range idx {
		s.lanes[i].diff = Stats{}
	}
	sl := s.engine.slot(layer)
	if sl == nil {
		for j := range idx {
			fail(j, fmt.Errorf("accel: layer %d is not mapped", layer))
		}
		return nil, errs
	}
	scr := s.lanes[0].scr
	scr.beginKernel()
	defer scr.endKernel()
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	m := sl.m
	s.imgs = s.imgs[:0]
	for j, x := range xs {
		lane := &s.lanes[idx[j]]
		switch {
		case len(x) != m.inDim:
			fail(j, fmt.Errorf("accel: input length %d, want %d", len(x), m.inDim))
		case sl.fallback:
			lane.diff.SoftMVMs++
			outs[j] = sl.soft.MVM(x)
		default:
			outs[j] = lane.scr.outFor(m.outDim)
			s.imgs = append(s.imgs, mvmImage{out: outs[j], x: x, rng: lane.rng, scr: lane.scr, st: &lane.diff})
		}
	}
	if len(s.imgs) > 0 {
		m.mvmBatch(s.imgs, &s.kn)
	}
	for _, i := range idx {
		lane := &s.lanes[i]
		lane.layer[layer].Merge(lane.diff)
		s.laneStats(i).Merge(lane.diff)
	}
	return outs, errs
}

// zeroed returns *buf resized to n with every element zeroed.
func zeroed[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// MVMLayer evaluates one mapped layer's matrix-vector product on the
// session's serial stream (lane 0), returning the output and the ECU stats
// of this call alone (also merged into the session totals, exactly like a
// Forward-pass MVM). The returned slice aliases the session's scratch
// arena and is valid until the session's next MVM. This is the unit of
// spatial retry: sibling replicas map the same layer shapes but may choose
// different per-array codes, so the layer MVM is the smallest operation
// with identical semantics on every replica. Panics if the layer is not
// mapped or x has the wrong length.
func (s *Session) MVMLayer(layer int, x []float64) ([]float64, Stats) {
	s.oneX[0] = x
	outs, errs := s.batchMVM(layer, s.oneIdx[:], s.oneX[:])
	if errs != nil {
		panic(errs[0])
	}
	return outs[0], s.lanes[0].diff
}

// MVMLayerBatch is MVMLayer for several lanes at once — the unit the
// replica router batches at. idx[j] selects the lane evaluating image j,
// streams[j] reseeds that lane (the caller derives the per-(image, layer)
// stream), and outs[j]/diffs[j] receive the output and this call's ECU
// stats. Outputs alias each lane's arena and are valid until that lane's
// next MVM. Panics like MVMLayer.
func (s *Session) MVMLayerBatch(layer int, idx []int, streams []uint64, xs [][]float64, outs [][]float64, diffs []Stats) {
	high := 0
	for _, i := range idx {
		high = max(high, i+1)
	}
	lanes := s.lanesFor(high)
	for j, i := range idx {
		stats.ReseedSub(lanes[i].src, s.engine.cfg.Seed, streams[j])
	}
	o, errs := s.batchMVM(layer, idx, xs)
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	copy(outs, o)
	for j, i := range idx {
		diffs[j] = s.lanes[i].diff
	}
}

// DrainBatchStats returns lane i's accumulated stats since the last drain
// and resets them (per-layer tallies included), letting a serving worker
// attribute ECU activity to the individual images of a pass.
func (s *Session) DrainBatchStats(i int) Stats {
	clear(s.lanesFor(i + 1)[i].layer)
	st := s.laneStats(i)
	out := *st
	*st = Stats{}
	return out
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats into a
// caller-owned map (cleared first); layers with no activity are omitted.
// Drain it before DrainBatchStats for the same lane — DrainBatchStats
// resets the per-layer tallies too.
func (s *Session) DrainBatchLayerStatsInto(i int, out map[int]Stats) {
	lane := &s.lanesFor(i + 1)[i]
	clear(out)
	for l := range lane.layer {
		if lane.layer[l] != (Stats{}) {
			out[l] = lane.layer[l]
			lane.layer[l] = Stats{}
		}
	}
}

// Close releases the lanes beyond the serial stream and every lane's
// network clone. The session stays usable; later passes re-grow them.
func (s *Session) Close() {
	s.lanes = []batchLane{s.lanes[0]}
	s.fb = nn.NewForwardBatcher(s.engine.net, s.engine.Layers())
}

// ForwardBatch is the one-shot convenience over a throwaway session: map
// callers that do not hold a session can still run one batched pass.
// outs[i] is bit-identical to a serial session's Reseed(streams[i]) +
// Forward(xs[i]).
func (e *Engine) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	return e.NewSession(0).ForwardBatch(xs, streams)
}
