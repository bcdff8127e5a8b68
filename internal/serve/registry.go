package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/accel"
)

// Loader builds the engine for a named workload on demand: train or fetch
// the network, map it onto the simulated accelerator, and describe its
// input contract. The serve layer stays ignorant of where workloads come
// from — the binary injects this (mnnserve wires the Table II training
// pipeline in), so loading a model never drags dataset or training code
// into the serving path.
type Loader func(name string) (*accel.Engine, Model, error)

// modelEntry is one served workload: its scheduler pool (with whatever
// shard/replica topology the template config asks for) and its input
// contract.
type modelEntry struct {
	model Model
	sched *Scheduler
	inLen int
}

// registry is the workload directory fronting the scheduler pools: the
// primary (boot-time) model plus anything loaded through /admin/models.
// Lookups are per request; loads and evicts are rare operator actions, and
// neither trains nor maps under the lock.
type registry struct {
	mu       sync.Mutex
	template Config
	loader   Loader
	entries  map[string]*modelEntry
	// primary is the first model added; it is set before the server
	// serves and never evicted.
	primary *modelEntry
}

func newRegistry(template Config, loader Loader) *registry {
	return &registry{template: template, loader: loader, entries: map[string]*modelEntry{}}
}

// lookup resolves a model name ("" = the primary model).
func (r *registry) lookup(name string) (*modelEntry, bool) {
	if name == "" {
		return r.primary, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ent, ok := r.entries[name]
	return ent, ok
}

// add checks a model's input contract, then starts its scheduler pool, and
// registers it under name. The pool starts outside the lock, so a racing
// add of the same name may lose: its pool is closed and the add refused.
// The first model added is the primary.
func (r *registry) add(name string, eng *accel.Engine, model Model, cfg Config) error {
	inLen := 1
	for _, d := range model.InShape {
		inLen *= d
	}
	if len(model.InShape) == 0 || inLen <= 0 {
		return fmt.Errorf("serve: model %q has no input shape", name)
	}
	sched, err := NewScheduler(eng, cfg)
	if err != nil {
		return fmt.Errorf("serve: starting pool for model %q: %w", name, err)
	}
	ent := &modelEntry{model: model, sched: sched, inLen: inLen}
	r.mu.Lock()
	_, dup := r.entries[name]
	if !dup {
		r.entries[name] = ent
		if r.primary == nil {
			r.primary = ent
		}
	}
	r.mu.Unlock()
	if dup {
		// The losing pool never took a request, so its drain is immediate
		// and its summary empty.
		_, _ = sched.Close(context.Background())
		return fmt.Errorf("serve: model %q is already loaded", name)
	}
	return nil
}

// load builds a named workload through the injected Loader and registers
// it. The new pool gets the primary's template configuration minus
// persistence: one state directory belongs to one lifetime trajectory, so
// only the primary model snapshots.
func (r *registry) load(name string) error {
	if r.loader == nil {
		return fmt.Errorf("serve: no workload loader is configured")
	}
	if _, ok := r.lookup(name); ok {
		return fmt.Errorf("serve: model %q is already loaded", name)
	}
	eng, model, err := r.loader(name)
	if err != nil {
		return fmt.Errorf("serve: loading model %q: %w", name, err)
	}
	cfg := r.template
	cfg.Persist = PersistConfig{}
	return r.add(name, eng, model, cfg)
}

// evict drains and removes a loaded model. The primary model is refused —
// it owns the HTTP identity (and the persistence directory); shut the
// server down instead.
func (r *registry) evict(ctx context.Context, name string) error {
	r.mu.Lock()
	ent, ok := r.entries[name]
	if ok && ent == r.primary {
		r.mu.Unlock()
		return fmt.Errorf("serve: model %q is the primary workload and cannot be evicted", name)
	}
	delete(r.entries, name)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: model %q is not loaded", name)
	}
	if _, err := ent.sched.Close(ctx); err != nil {
		return fmt.Errorf("serve: draining model %q: %w", name, err)
	}
	return nil
}

// closeLoaded drains every non-primary pool (server shutdown).
func (r *registry) closeLoaded(ctx context.Context) {
	r.mu.Lock()
	var loaded []*modelEntry
	for name, ent := range r.entries {
		if ent != r.primary {
			loaded = append(loaded, ent)
			delete(r.entries, name)
		}
	}
	r.mu.Unlock()
	for _, ent := range loaded {
		_, _ = ent.sched.Close(ctx)
	}
}

// ModelInfo is one workload's row in GET /admin/models.
type ModelInfo struct {
	Name    string `json:"name"`
	Primary bool   `json:"primary,omitempty"`
	// Shards is the pool's fault-domain count (0 = unsharded).
	Shards  int    `json:"shards,omitempty"`
	Workers int    `json:"workers"`
	Served  uint64 `json:"served"`
}

// list snapshots every registered workload, primary first then by name.
func (r *registry) list() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelInfo, 0, len(r.entries))
	for name, ent := range r.entries {
		info := ModelInfo{
			Name:    name,
			Primary: ent == r.primary,
			Workers: ent.sched.Workers(),
			Served:  ent.sched.Served(),
		}
		if pool := ent.sched.ShardPool(); pool != nil {
			info.Shards = pool.Size()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Primary != out[j].Primary {
			return out[i].Primary
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// evictTimeout bounds how long an admin evict waits for the model's pool to
// drain before giving up (the entry is removed either way).
const evictTimeout = 10 * time.Second
