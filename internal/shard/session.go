package shard

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/nn"
	"repro/internal/replica"
)

// Session is one concurrent evaluation stream over the pool: one replica
// session per shard plus a lockstep walk over per-lane clones of the full
// network. Each layer MVM is delegated to the owning shard's session, so
// routing, failover, and voting happen inside the fault domain that owns
// the layer. A lone image is a batch of one. Like the sessions underneath
// it must be driven from a single goroutine.
type Session struct {
	pool *Pool
	subs []*replica.Session // by shard
	fb   *nn.ForwardBatcher
	// stream is the serial request stream set by Reseed.
	stream uint64
	one    [1]*nn.Tensor
	oneStr [1]uint64
	tmp    map[int]accel.Stats
}

// NewSession creates an evaluation stream across every shard.
func (p *Pool) NewSession(seed uint64) *Session {
	s := &Session{
		pool: p,
		subs: make([]*replica.Session, len(p.shards)),
		fb:   nn.NewForwardBatcher(p.primary.Network(), p.layers),
		tmp:  make(map[int]accel.Stats),
	}
	for i, sh := range p.shards {
		s.subs[i] = sh.set.NewSession(seed)
	}
	return s
}

// Reseed repoints the serial request stream. Each shard derives the same
// per-layer sub-streams the monolithic session would, so the evaluation
// stays a pure function of (engines, stream, input) regardless of the
// shard count.
func (s *Session) Reseed(stream uint64) { s.stream = stream }

// Forward runs one routed inference pass across the shards under the
// Reseed stream: a walk of one lane. The returned tensor is owned by the
// session and valid until the next pass. A malformed input panics.
func (s *Session) Forward(x *nn.Tensor) *nn.Tensor {
	s.one[0], s.oneStr[0] = x, s.stream
	outs, errs := s.ForwardBatch(s.one[:], s.oneStr[:])
	if errs[0] != nil {
		panic(errs[0])
	}
	return outs[0]
}

// ForwardBatch runs one routed noisy inference per input, batched: images
// advance in lockstep through the full network and each layer's MVMs are
// delegated to the shard owning that layer, which evaluates them with the
// same per-replica grouping, failover, and voting as a bare replica set.
// streams[i] plays the role of Reseed(streams[i]) for image i. Outputs are
// valid until the session's next pass.
func (s *Session) ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error) {
	if len(streams) != len(xs) {
		panic(fmt.Sprintf("shard: %d inputs, %d streams", len(xs), len(streams)))
	}
	for _, sub := range s.subs {
		sub.BeginBatch(streams)
	}
	return s.fb.Run(xs, s.batchMVM)
}

// batchMVM routes one layer's MVMs to the owning shard.
func (s *Session) batchMVM(layer int, idx []int, xs [][]float64) ([][]float64, []error) {
	return s.subs[s.pool.owner[layer]].BatchMVM(layer, idx, xs)
}

// DrainBatchStats returns lane i's stats summed across every shard since
// the last drain and resets them.
func (s *Session) DrainBatchStats(i int) accel.Stats {
	var st accel.Stats
	for _, sub := range s.subs {
		st.Merge(sub.DrainBatchStats(i))
	}
	return st
}

// DrainBatchLayerStatsInto drains lane i's per-layer stats, merged across
// shards, into the caller-owned map (cleared first). Shards own disjoint
// layers, so the merge is a union. Call it before DrainBatchStats for the
// same lane.
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
