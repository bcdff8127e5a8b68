package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/crossbar"
	"repro/internal/replica"
	"repro/internal/scrub"
)

// ShardState is a shard's serving state.
type ShardState int32

const (
	// Serving: the shard answers layer MVMs from its crossbar replicas.
	Serving ShardState = iota
	// Draining: the shard's layers are routed to the software fixed-point
	// path while the crossbars are repaired — traffic keeps flowing with
	// deterministic answers, siblings untouched.
	Draining
)

// String names the state for logs, metrics, and /readyz rows.
func (s ShardState) String() string {
	switch s {
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Shard is one fault domain: a contiguous slice of the network's layers
// with its own replica set, routing breakers, and maintenance lifecycle.
// Layer evaluation goes through the set (concurrency-safe); the operator's
// maintenance verbs (Drain, Repair, Rejoin) are serialized per shard by mu,
// so two of them cannot interleave half-finished repairs.
type Shard struct {
	id     int
	layers []int
	set    *replica.Set

	// mu serializes maintenance transitions; state is the read side for
	// hot-path-free status checks.
	mu    sync.Mutex
	state atomic.Int32

	drains  atomic.Uint64 // drain transitions
	repairs atomic.Uint64 // completed repair cycles
	remaps  atomic.Uint64 // layer remaps performed by repair cycles
	rejoins atomic.Uint64 // rejoin transitions back to serving

	// verify[r] sums copy r's write-verify accounting over every repair
	// (the remap's programming and the patrol's re-writes). verifyMu
	// guards it on its own, so Status never waits out a running repair.
	verifyMu sync.Mutex
	verify   []RepairVerify
}

func newShard(id int, layers []int, set *replica.Set) *Shard {
	return &Shard{id: id, layers: append([]int(nil), layers...), set: set,
		verify: make([]RepairVerify, set.Size())}
}

// ID returns the shard's position in the pool.
func (sh *Shard) ID() int { return sh.id }

// Layers returns the shard's owned layer indices in ascending order.
func (sh *Shard) Layers() []int { return append([]int(nil), sh.layers...) }

// Set returns the shard's replica set.
func (sh *Shard) Set() *replica.Set { return sh.set }

// State returns the shard's serving state.
func (sh *Shard) State() ShardState { return ShardState(sh.state.Load()) }

// Drain routes every layer of the shard to the software fixed-point path —
// on every replica at once — and marks the shard Draining. Requests keep
// being answered (deterministically, from the digital fallback) the whole
// time; sibling shards are untouched. Idempotent while already draining.
func (sh *Shard) Drain() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, li := range sh.layers {
		if err := sh.set.SetFallback(li, true); err != nil {
			return fmt.Errorf("shard %d: draining layer %d: %w", sh.id, li, err)
		}
	}
	if ShardState(sh.state.Swap(int32(Draining))) != Draining {
		sh.drains.Add(1)
	}
	return nil
}

// Repair re-programs every layer of the shard onto spare arrays, replica by
// replica, and patrol-verifies each remap (scrub.Reprogram, each copy under
// its own engine's verify bound and seed, so copies keep independent error
// processes). Call it on a drained shard: traffic keeps answering from the
// software path, which the repair leaves in place until Rejoin, so the
// reprogram stalls nobody. Each copy's verify accounting (pulses,
// give-ups) adds to its RepairVerify row. It returns the
// number of layers whose verify still reports uncorrectable rows (0 = the
// shard is clean and safe to Rejoin).
func (sh *Shard) Repair() (dirty int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for r := 0; r < sh.set.Size(); r++ {
		for _, li := range sh.layers {
			rep, err := scrub.Reprogram(sh.set.Engine(r), li)
			if err != nil {
				return dirty, fmt.Errorf("shard %d: repairing layer %d replica %d: %w", sh.id, li, r, err)
			}
			sh.remaps.Add(1)
			sh.verifyMu.Lock()
			sh.verify[r].add(rep.Verify)
			sh.verifyMu.Unlock()
			if !rep.Clean() {
				dirty++
			}
		}
	}
	sh.repairs.Add(1)
	return dirty, nil
}

// Rejoin returns a drained shard to crossbar serving: every layer's
// software-fallback flag is cleared on every copy, and every replica's
// routing monitor is reset, so the shard re-earns trust from fresh
// evidence. Idempotent while already serving.
func (sh *Shard) Rejoin() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, li := range sh.layers {
		if err := sh.set.SetFallback(li, false); err != nil {
			return fmt.Errorf("shard %d: rejoining layer %d: %w", sh.id, li, err)
		}
	}
	for r := 0; r < sh.set.Size(); r++ {
		sh.set.Monitor(r).ResetAll()
	}
	if ShardState(sh.state.Swap(int32(Serving))) != Serving {
		sh.rejoins.Add(1)
	}
	return nil
}

// ShardStatus is one shard's row in the operator view (/readyz, metrics,
// /admin/shards).
type ShardStatus struct {
	ID     int    `json:"id"`
	State  string `json:"state"`
	Layers []int  `json:"layers"`
	// DegradedLayers are the shard's layers currently on the software path
	// (all of them while drained; possibly a subset after partial repair).
	DegradedLayers []int `json:"degraded_layers,omitempty"`
	// Drains/Repairs/Remaps/Rejoins count the shard's maintenance
	// lifecycle transitions.
	Drains  uint64 `json:"drains"`
	Repairs uint64 `json:"repairs"`
	Remaps  uint64 `json:"remaps"`
	Rejoins uint64 `json:"rejoins"`
	// RepairVerify is each replica copy's write-verify accounting summed
	// over the shard's repairs, in copy order. Copies program under their
	// own engine seeds, so their pulse counts and give-ups differ.
	RepairVerify []RepairVerify `json:"repair_verify"`
	// Replicas is the shard's replica-set view (attachment, open breakers,
	// routing counters).
	Replicas replica.SetStatus `json:"replicas"`
}

// RepairVerify is one copy's write-verify accounting over the shard's
// repairs.
type RepairVerify struct {
	// Cells is how many cells went through the verify loop.
	Cells uint64 `json:"cells"`
	// Pulses is the total write pulses issued.
	Pulses uint64 `json:"pulses"`
	// GaveUp counts cells that never verified within the pulse bound.
	GaveUp uint64 `json:"gave_up"`
}

// add folds one repair report's verify tally in.
func (v *RepairVerify) add(t crossbar.VerifyTally) {
	v.Cells += t.Cells
	v.Pulses += t.Pulses
	v.GaveUp += t.GaveUp
}

// Status snapshots the shard.
func (sh *Shard) Status() ShardStatus {
	st := ShardStatus{
		ID:       sh.id,
		State:    sh.State().String(),
		Layers:   sh.Layers(),
		Drains:   sh.drains.Load(),
		Repairs:  sh.repairs.Load(),
		Remaps:   sh.remaps.Load(),
		Rejoins:  sh.rejoins.Load(),
		Replicas: sh.set.Status(),
	}
	sh.verifyMu.Lock()
	st.RepairVerify = append([]RepairVerify(nil), sh.verify...)
	sh.verifyMu.Unlock()
	for _, li := range sh.layers {
		if sh.set.Engine(0).Fallback(li) {
			st.DegradedLayers = append(st.DegradedLayers, li)
		}
	}
	return st
}
