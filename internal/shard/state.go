package shard

import (
	"fmt"

	"repro/internal/replica"
)

// ShardSnap is one shard's durable state: its identity (position and owned
// layers — the restore-time topology check), its serving state, its
// maintenance counters, and its full replica-set state.
type ShardSnap struct {
	ID       int              `json:"id"`
	Layers   []int            `json:"layers"`
	State    int32            `json:"state"`
	Drains   uint64           `json:"drains"`
	Repairs  uint64           `json:"repairs"`
	Remaps   uint64           `json:"remaps"`
	Rejoins  uint64           `json:"rejoins"`
	Replicas replica.SetState `json:"replicas"`
}

// PoolState is the durable state of the whole pool. The shard count is the
// topology fingerprint: a snapshot taken at M shards names M fault domains
// with M distinct layer slices and M independent replica populations, so it
// cannot be poured into a pool partitioned differently — restore refuses it
// and the caller falls back to the fresh mapping.
type PoolState struct {
	Shards []ShardSnap `json:"shards"`
}

// Snapshot captures the pool's durable state.
func (p *Pool) Snapshot() PoolState {
	st := PoolState{Shards: make([]ShardSnap, len(p.shards))}
	for i, sh := range p.shards {
		st.Shards[i] = ShardSnap{
			ID:       sh.id,
			Layers:   sh.Layers(),
			State:    sh.state.Load(),
			Drains:   sh.drains.Load(),
			Repairs:  sh.repairs.Load(),
			Remaps:   sh.remaps.Load(),
			Rejoins:  sh.rejoins.Load(),
			Replicas: sh.set.Snapshot(),
		}
	}
	return st
}

// CheckRestore validates a snapshot against this pool without touching any
// state: shard count (the topology check), each shard's identity and layer
// slice, each shard's serving state, and every replica set underneath.
func (p *Pool) CheckRestore(st PoolState) error {
	if len(st.Shards) != len(p.shards) {
		return fmt.Errorf("shard: snapshot has %d shards, pool has %d — topology changed, snapshot refused", len(st.Shards), len(p.shards))
	}
	for i, ss := range st.Shards {
		sh := p.shards[i]
		if ss.ID != sh.id {
			return fmt.Errorf("shard: snapshot shard %d has id %d", i, ss.ID)
		}
		if !equalInts(ss.Layers, sh.layers) {
			return fmt.Errorf("shard: snapshot shard %d owns layers %v, pool shard owns %v", i, ss.Layers, sh.layers)
		}
		if s := ShardState(ss.State); s != Serving && s != Draining {
			return fmt.Errorf("shard: snapshot shard %d has unknown state %d", i, ss.State)
		}
		if err := sh.set.CheckRestore(ss.Replicas); err != nil {
			return fmt.Errorf("shard: snapshot shard %d: %w", i, err)
		}
	}
	return nil
}

// Restore rebuilds every shard from a snapshot: replica sets (engines,
// monitors, router state), serving state, and maintenance counters. Every
// shard is validated before any is touched, so a refused snapshot leaves
// the pool as it was.
func (p *Pool) Restore(st PoolState) error {
	if err := p.CheckRestore(st); err != nil {
		return err
	}
	for i, ss := range st.Shards {
		sh := p.shards[i]
		sh.mu.Lock()
		err := sh.set.Restore(ss.Replicas)
		if err == nil {
			sh.state.Store(ss.State)
			sh.drains.Store(ss.Drains)
			sh.repairs.Store(ss.Repairs)
			sh.remaps.Store(ss.Remaps)
			sh.rejoins.Store(ss.Rejoins)
		}
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard: restoring shard %d: %w", i, err)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
