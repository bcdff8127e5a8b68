// Package shard partitions a mapped network into engine shards — contiguous
// slices of layers, each programmed as its own fault domain with a full
// reliability stack: an independent replica set, per-replica routing
// breakers, its own scrubber rotation, and its own persistence snapshot.
//
// The partitioning mirrors ISAAC-style tile allocation: layers are assigned
// to shards in network order, so a shard owns the crossbar tiles of a
// pipeline stage. What the paper does on-chip (protect the unit that fails,
// not the whole accelerator) this package does at serving scale: damage is
// repaired inside the shard that owns the layer, per layer, and an operator
// can drain a whole shard to the software path, repair it, and rejoin it
// while its siblings keep serving from hardware. An unsharded serving pool
// is a pool of one shard.
//
// Outputs are shard-count invariant: a layer's programmed arrays depend
// only on (engine config, global layer index) and its noise draws only on
// (replica engine, request stream, layer), so slicing the network across 1,
// 2, or 4 shards yields bit-identical predictions for the same request
// seed.
package shard

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/noise"
	"repro/internal/replica"
)

// maxShards bounds the pool: a shard must own at least one layer, and past
// a handful of fault domains the bookkeeping outweighs the isolation.
const maxShards = 16

// Config sizes a shard pool.
type Config struct {
	// N is the shard count; 1 (or 0) puts every layer in one shard.
	N int
	// Replicas is each shard's replica-set configuration. Every shard gets
	// its own independent set (engines, monitors, router state).
	Replicas replica.Config
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1
	}
	return c
}

// Validate rejects nonsensical pool settings.
func (c Config) Validate() error {
	if c.N > maxShards {
		return fmt.Errorf("shard: %d shards exceeds the maximum %d", c.N, maxShards)
	}
	return c.Replicas.Validate()
}

// Pool is N engine shards over one mapped network plus the layer-ownership
// table that routes each mapped layer to its owning shard.
type Pool struct {
	primary *accel.Engine
	shards  []*Shard
	// owner maps layer index -> owning shard id (-1 for unmapped layers);
	// dense so the per-MVM route is a bounds check, like engine slots.
	owner []int
	// layers is every mapped layer in ascending order (the layers the walk
	// hands to the shards).
	layers []int
}

// NewPool slices the primary engine's mapped layers into cfg.N contiguous
// shards and programs each shard's replica set. The primary's arrays are
// shared as each shard's replica 0 (no re-programming); replicas 1..R-1 are
// mapped fresh per shard, covering only that shard's layers.
func NewPool(primary *accel.Engine, cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	layers := primary.Layers()
	if len(layers) < cfg.N {
		return nil, fmt.Errorf("shard: %d shards over %d mapped layers — a shard must own at least one layer", cfg.N, len(layers))
	}
	p := &Pool{
		primary: primary,
		shards:  make([]*Shard, cfg.N),
		owner:   make([]int, len(primary.Network().Layers)),
		layers:  layers,
	}
	for i := range p.owner {
		p.owner[i] = -1
	}
	// Contiguous balanced split: the first (len % N) shards get one extra
	// layer, so shard boundaries are a pure function of (layer count, N).
	per, extra := len(layers)/cfg.N, len(layers)%cfg.N
	lo := 0
	for id := 0; id < cfg.N; id++ {
		n := per
		if id < extra {
			n++
		}
		slice := layers[lo : lo+n]
		lo += n
		part, err := primary.Partition(slice)
		if err != nil {
			return nil, fmt.Errorf("shard: partitioning shard %d: %w", id, err)
		}
		set, err := replica.NewSet(part, cfg.Replicas)
		if err != nil {
			return nil, fmt.Errorf("shard: programming shard %d: %w", id, err)
		}
		p.shards[id] = newShard(id, slice, set)
		for _, li := range slice {
			p.owner[li] = id
		}
	}
	return p, nil
}

// Size returns the shard count.
func (p *Pool) Size() int { return len(p.shards) }

// Shard returns shard id (panics out of range, like a slice).
func (p *Pool) Shard(id int) *Shard { return p.shards[id] }

// Owner returns the shard owning a layer, or nil for unmapped layers.
func (p *Pool) Owner(layer int) *Shard {
	if layer < 0 || layer >= len(p.owner) || p.owner[layer] < 0 {
		return nil
	}
	return p.shards[p.owner[layer]]
}

// Layers returns every mapped layer in ascending order.
func (p *Pool) Layers() []int { return p.layers }

// Retune applies an environment-adjusted device model to every shard's
// every replica — the environment is shared by all physical tiles.
func (p *Pool) Retune(dev noise.DeviceParams) error {
	for _, sh := range p.shards {
		if err := sh.set.Retune(dev); err != nil {
			return fmt.Errorf("shard: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// Status snapshots every shard for /readyz and the mnn_shard_* series.
func (p *Pool) Status() []ShardStatus {
	out := make([]ShardStatus, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.Status()
	}
	return out
}
