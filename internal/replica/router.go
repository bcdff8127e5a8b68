package replica

import (
	"fmt"
	"math"

	"repro/internal/accel"
)

// layerStreamStride separates the per-layer noise streams inside one request
// stream. Reseeding each layer MVM to (stream ^ (layer+1)*stride) makes the
// evaluation a pure function of (replica engine, request stream, layer,
// input): re-executing a layer on a sibling — or re-reading it during a vote
// — always sees the same device noise it would have seen the first time, so
// routing decisions never perturb results and failover is bit-deterministic
// under a fixed seed.
const layerStreamStride = uint64(1) << 40

// Router is the per-layer routed evaluation over a replica set for one
// concurrent stream: it picks a copy per image, evaluates each copy's
// images in one batched pass on that copy's accel.Session, and escalates
// flagged reads to a sibling or a majority vote. It holds no walk of its
// own: the shard pool session drives it layer by layer and drains the
// copies' stats. Like accel.Session it must be driven from a single
// goroutine.
type Router struct {
	set *Set
	sub []*accel.Session // one per copy, owned by the caller
	// streams are the per-lane request streams of the active pass.
	streams []uint64
	// flagged counts consecutive detected-uncorrectable evaluations per
	// layer; it resets when the routed read comes back clean and, at the
	// vote threshold, escalates the layer to majority voting.
	flagged []int

	// per-dispatch gather scratch (grow-never-shrink)
	picks []int
	outs  [][]float64
	diffs []accel.Stats
	gIdx  []int
	gStr  []uint64
	gXs   [][]float64
	gOuts [][]float64
	gDif  []accel.Stats
	gPos  []int

	// one-image buffers for the failover/vote escalations
	one1i [1]int
	one1s [1]uint64
	one1x [1][]float64
	one1o [1][]float64
	one1d [1]accel.Stats
}

// NewRouter routes over subs, one evaluation session per copy in replica
// order (subs[r] must be a session of Engine(r)). The caller keeps the
// sessions and drains their stats.
func (s *Set) NewRouter(subs []*accel.Session) *Router {
	if len(subs) != len(s.engines) {
		panic(fmt.Sprintf("replica: %d sessions for %d copies", len(subs), len(s.engines)))
	}
	return &Router{
		set:     s,
		sub:     subs,
		flagged: make([]int, len(s.engines[0].Network().Layers)),
	}
}

// BeginBatch arms a pass: streams[i] is lane i's request stream. Call it
// once per pass, before the pass's first BatchMVM.
func (s *Router) BeginBatch(streams []uint64) {
	s.streams = append(s.streams[:0], streams...)
}

func (s *Router) grow(n int) {
	if cap(s.picks) < n {
		s.picks = make([]int, n)
		s.outs = make([][]float64, n)
		s.diffs = make([]accel.Stats, n)
		s.gIdx = make([]int, 0, n)
		s.gStr = make([]uint64, 0, n)
		s.gXs = make([][]float64, 0, n)
		s.gOuts = make([][]float64, 0, n)
		s.gDif = make([]accel.Stats, 0, n)
		s.gPos = make([]int, 0, n)
	}
}

// BatchMVM is the routed evaluation of one layer for the lanes idx (lane
// indices into the pass's streams) on inputs xs: pick a replica per image,
// evaluate each replica's images in one MVMLayerBatch pass, then walk the
// images in lane order applying the escalation — on a detected-
// uncorrectable read either majority-vote (once the layer is persistently
// flagged) or re-execute on a sibling whose fault population is
// independent: spatial first, because temporal retry re-reads the same
// stuck cells. Outputs land in per-lane arenas and stay valid until the
// lane's next evaluation; the error slice is always nil.
func (s *Router) BatchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	s.grow(len(s.streams))
	picks := s.picks[:len(idx)]
	outs := s.outs[:len(idx)]
	diffs := s.diffs[:len(idx)]
	for j, lane := range idx {
		picks[j] = s.set.pick(layer, s.streams[lane])
	}
	// Evaluate each replica's group in one batched pass. Replicas are
	// visited in first-occurrence order; the result is order-independent
	// because every image's draws are a pure function of (replica engine,
	// derived stream).
	for j := range idx {
		r := picks[j]
		if r < 0 {
			continue // already evaluated as part of an earlier group
		}
		s.gIdx, s.gStr, s.gXs = s.gIdx[:0], s.gStr[:0], s.gXs[:0]
		s.gOuts, s.gDif, s.gPos = s.gOuts[:0], s.gDif[:0], s.gPos[:0]
		for k := j; k < len(idx); k++ {
			if picks[k] != r {
				continue
			}
			picks[k] = -1
			lane := idx[k]
			s.gIdx = append(s.gIdx, lane)
			s.gStr = append(s.gStr, s.streams[lane]^uint64(layer+1)*layerStreamStride)
			s.gXs = append(s.gXs, xs[k])
			s.gOuts = append(s.gOuts, nil)
			s.gDif = append(s.gDif, accel.Stats{})
			s.gPos = append(s.gPos, k)
		}
		s.sub[r].MVMLayerBatch(layer, s.gIdx, s.gStr, s.gXs, s.gOuts, s.gDif)
		s.set.routed[r].Add(uint64(len(s.gIdx)))
		for g, k := range s.gPos {
			s.set.mons[r].ObserveOne(layer, s.gDif[g])
			outs[k] = s.gOuts[g]
			diffs[k] = s.gDif[g]
			picks[k] = ^r // remember the evaluator for the escalation walk
		}
	}
	// Escalation walk, image by image in lane order, sharing the router's
	// consecutive-flag counters.
	for j := range idx {
		r := ^picks[j]
		st := diffs[j]
		if st.Detected == 0 {
			s.flagged[layer] = 0
			continue
		}
		s.flagged[layer]++
		if th := s.set.VoteThreshold(); th > 0 && s.flagged[layer] >= th {
			if v, ok := s.vote(layer, idx[j], xs[j]); ok {
				outs[j] = v
				continue
			}
		}
		alt, ok := s.set.alternate(layer, s.streams[idx[j]], r)
		if !ok {
			continue
		}
		s.set.failovers[r].Add(1)
		out2, st2 := s.eval(alt, layer, idx[j], xs[j])
		if st2.Detected < st.Detected {
			outs[j] = out2
		}
	}
	return outs, nil
}

// eval runs one image's layer MVM on replica r under the derived
// per-layer stream, through the image's own lane so the output lands in
// that lane's arena (batchmates' outputs stay live), and feeds the
// replica's health monitor.
func (s *Router) eval(r, layer, lane int, x []float64) ([]float64, accel.Stats) {
	s.one1i[0] = lane
	s.one1s[0] = s.streams[lane] ^ uint64(layer+1)*layerStreamStride
	s.one1x[0] = x
	s.one1o[0] = nil
	s.sub[r].MVMLayerBatch(layer, s.one1i[:], s.one1s[:], s.one1x[:], s.one1o[:], s.one1d[:])
	s.set.routed[r].Add(1)
	s.set.mons[r].ObserveOne(layer, s.one1d[0])
	return s.one1o[0], s.one1d[0]
}

// vote evaluates one image's layer on a 3-replica panel and returns the
// element-wise median, tallying elements where a voter deviates past the
// tolerance — the signature of a damaged copy whose errors alias into
// plausible magnitudes. ok is false when fewer than 3 replicas are
// attached. The three outputs live in three distinct engines' lane arenas,
// so they are simultaneously valid; the median is written into the first
// in place.
func (s *Router) vote(layer, lane int, x []float64) ([]float64, bool) {
	vs := s.set.voters(layer, 3)
	if len(vs) < 3 {
		return nil, false
	}
	a, _ := s.eval(vs[0], layer, lane, x)
	b, _ := s.eval(vs[1], layer, lane, x)
	c, _ := s.eval(vs[2], layer, lane, x)
	s.set.votes.Add(1)
	tol := s.set.cfg.VoteTolerance
	var dis uint64
	for i := range a {
		av, bv, cv := a[i], b[i], c[i]
		m := av + bv + cv - math.Min(av, math.Min(bv, cv)) - math.Max(av, math.Max(bv, cv))
		lim := tol * math.Max(math.Abs(m), 1)
		if math.Abs(av-m) > lim {
			dis++
		}
		if math.Abs(bv-m) > lim {
			dis++
		}
		if math.Abs(cv-m) > lim {
			dis++
		}
		a[i] = m
	}
	if dis > 0 {
		s.set.disagreements.Add(dis)
	}
	return a, true
}
