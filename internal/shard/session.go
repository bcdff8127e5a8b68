package shard

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/nn"
	"repro/internal/replica"
)

// Session is one concurrent evaluation stream over the pool and the only
// routed forward pass: one accel.Session per copy per shard, a replica
// router per shard over that shard's copies, and a lockstep walk over
// per-lane clones of the full network. Each layer MVM is delegated to the
// owning shard's router, so routing, failover, and voting happen inside
// the fault domain that owns the layer. A lone image is a batch of one.
// Like the sessions underneath it must be driven from a single goroutine.
type Session struct {
	pool    *Pool
	routers []*replica.Router // by shard
	subs    []*accel.Session  // every copy of every shard, shard-major
	fb      *nn.ForwardBatcher
	tmp     map[int]accel.Stats
}

// NewSession creates an evaluation stream across every shard.
func (p *Pool) NewSession(seed uint64) *Session {
	s := &Session{
		pool:    p,
		routers: make([]*replica.Router, len(p.shards)),
		fb:      nn.NewForwardBatcher(p.primary.Network(), p.layers),
		tmp:     make(map[int]accel.Stats),
	}
	for i, sh := range p.shards {
		copies := make([]*accel.Session, sh.set.Size())
		for r := range copies {
			copies[r] = sh.set.Engine(r).NewSession(seed)
		}
		s.routers[i] = sh.set.NewRouter(copies)
		s.subs = append(s.subs, copies...)
	}
	return s
}

// ForwardBatch runs one routed noisy inference per input, batched: images
// advance in lockstep through the full network and each layer's MVMs are
// delegated to the router of the shard owning that layer. streams[i] is
// image i's request stream; each shard derives the same per-layer
// sub-streams whatever the shard count, so the evaluation stays a pure
// function of (engines, stream, input). Outputs are valid until the
// session's next pass. errs[i] is non-nil (and outs[i] nil) when image i
// alone failed; batchmates are unaffected.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("shard: %d inputs, %d streams", len(xs), len(streams)))
	}
	for _, r := range s.routers {
		r.BeginBatch(streams)
	}
	return s.fb.Run(xs, s.batchMVM)
}

// batchMVM routes one layer's MVMs to the owning shard.
func (s *Session) batchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	return s.routers[s.pool.owner[layer]].BatchMVM(layer, idx, xs)
}

// DrainBatchStats returns lane i's stats summed across every copy of every
// shard since the last drain and resets them.
func (s *Session) DrainBatchStats(i int) accel.Stats {
	var st accel.Stats
	for _, sub := range s.subs {
		st.Merge(sub.DrainBatchStats(i))
	}
	return st
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats, merged across
// every copy of every shard, into the caller-owned map (cleared first).
// Call it before DrainBatchStats for the same lane.
func (s *Session) DrainBatchLayerStatsInto(i int, out map[int]accel.Stats) {
	clear(out)
	for _, sub := range s.subs {
		sub.DrainBatchLayerStatsInto(i, s.tmp)
		for layer, st := range s.tmp {
			agg := out[layer]
			agg.Merge(st)
			out[layer] = agg
		}
	}
}
