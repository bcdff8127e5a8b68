package accel

import (
	"fmt"
	"sync"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/stats"
)

// remapSeedStride separates the fault-injection seed of successive remap
// epochs of one layer from every other layer's seed: layer indices occupy
// the low bits, the epoch the high ones.
const remapSeedStride = uint64(1) << 32

// layerSlot is the serving-time indirection for one mapped layer. Sessions
// read the current MappedMatrix through the slot so the engine can swap it
// (Remap) or bypass it (software fallback) while traffic is in flight. The
// RWMutex also serializes online fault injection against concurrent reads.
type layerSlot struct {
	mu sync.RWMutex
	m  *MappedMatrix
	// remaps counts how often this layer was re-programmed onto spares.
	remaps int
	// fallback routes the layer to the digital fixed-point path.
	fallback bool
	soft     *SoftMatrix
	// dev is the currently active device model — the map-time device until
	// an environment Retune swaps it. Remaps rebuild under this device so a
	// repair does not silently revert an excursion adjustment.
	dev noise.DeviceParams
	// mapDev is the device model the current mapping was *built* under (set
	// at Map and Remap, untouched by Retune). The A-code search is
	// device-dependent, so a restart must rebuild the mapping under this
	// device — not the retuned one — to reproduce the programmed arrays
	// bit-identically, then retune to dev.
	mapDev noise.DeviceParams
	// rebuild re-runs the mapping with a given device model and
	// fault-injection seed.
	rebuild func(dev noise.DeviceParams, seed uint64) (*MappedMatrix, error)
	// mkSoft builds the fallback matrix lazily on first degradation.
	mkSoft func() (*SoftMatrix, error)
}

// Engine holds a network whose dense and convolutional layers have been
// mapped onto simulated crossbar hardware. Mapping (quantization, fault
// injection, A search, table construction, programming) happens once;
// Sessions then evaluate inputs concurrently against the shared arrays.
// Per-layer slots let the engine re-program (Remap) or degrade
// (SetFallback) individual layers while sessions keep serving.
type Engine struct {
	cfg Config
	net *nn.Network
	// slots is indexed by layer position in the network (dense, so the
	// per-MVM slot lookup is a bounds check instead of a map probe); nil
	// entries are unmapped layers.
	slots []*layerSlot
	// mapped counts the non-nil slots.
	mapped int
	// partition, when non-nil, restricts the engine to this subset of the
	// network's mappable layers (a shard). Replicate then reprograms only
	// these layers, so a shard's replicas never pay for sibling layers.
	partition []int
	// PhysicalRows is the total mapped word-line count (hardware-model
	// bookkeeping).
	PhysicalRows int
}

// slot returns the layer's slot, nil when out of range or unmapped.
func (e *Engine) slot(layer int) *layerSlot {
	if layer < 0 || layer >= len(e.slots) {
		return nil
	}
	return e.slots[layer]
}

// Map programs every MVM-capable layer of the network onto crossbars.
func Map(net *nn.Network, cfg Config) (*Engine, error) {
	return MapLayers(net, cfg, nil)
}

// MapLayers programs a subset of the network's MVM-capable layers onto
// crossbars (nil = every mappable layer, exactly Map). A layer's arrays
// depend only on (cfg, layer index) — the per-layer map seed is the global
// layer index and fault populations are drawn per layer — so mapping a
// subset programs bit-identical arrays to mapping the whole network. That
// is the property shard partitioning leans on: a shard's slice of layers
// is indistinguishable, cell for cell, from the same layers inside a
// monolithic engine.
func MapLayers(net *nn.Network, cfg Config, layers []int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var want map[int]bool
	if layers != nil {
		want = make(map[int]bool, len(layers))
		for _, li := range layers {
			if li < 0 || li >= len(net.Layers) {
				return nil, fmt.Errorf("accel: partition layer %d out of range for network %s", li, net.Name)
			}
			want[li] = true
		}
	}
	e := &Engine{cfg: cfg, net: net, slots: make([]*layerSlot, len(net.Layers))}
	if layers != nil {
		e.partition = append([]int(nil), layers...)
	}
	for i, l := range net.Layers {
		if want != nil && !want[i] {
			continue
		}
		layerCfg := cfg
		if override, ok := cfg.LayerSchemes[i]; ok {
			layerCfg.Scheme = override
		}
		var outDim, inDim int
		var weightAt func(r, c int) float64
		switch v := l.(type) {
		case *nn.Dense:
			outDim, inDim, weightAt = v.Out, v.In, v.WeightAt
		case *nn.Conv2D:
			outDim, inDim, weightAt = v.OutC, v.PatchLen(), v.WeightAt
		default:
			if want != nil {
				return nil, fmt.Errorf("accel: partition layer %d (%s) is not mappable", i, l.Name())
			}
			continue
		}
		lc, oD, iD, wA := layerCfg, outDim, inDim, weightAt
		sl := &layerSlot{
			dev:    layerCfg.Device,
			mapDev: layerCfg.Device,
			rebuild: func(dev noise.DeviceParams, seed uint64) (*MappedMatrix, error) {
				c := lc
				c.Device = dev
				return MapMatrix(c, oD, iD, wA, seed)
			},
			mkSoft: func() (*SoftMatrix, error) {
				return NewSoftMatrix(oD, iD, lc.WeightBits, lc.InputBits, wA)
			},
		}
		m, err := sl.rebuild(sl.dev, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("accel: mapping layer %d (%s): %w", i, l.Name(), err)
		}
		sl.m = m
		e.slots[i] = sl
		e.mapped++
		e.PhysicalRows += m.PhysicalRows
	}
	if e.mapped == 0 {
		return nil, fmt.Errorf("accel: network %s has no mappable layers", net.Name)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Network returns the network the engine was mapped from. Callers must
// treat it as read-only while sessions are live.
func (e *Engine) Network() *nn.Network { return e.net }

// Mapped returns the mapped matrix of a layer index (nil if unmapped).
func (e *Engine) Mapped(layer int) *MappedMatrix {
	sl := e.slot(layer)
	if sl == nil {
		return nil
	}
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	return sl.m
}

// Layers returns the mapped layer indices in ascending order.
func (e *Engine) Layers() []int {
	out := make([]int, 0, e.mapped)
	for i, sl := range e.slots {
		if sl != nil {
			out = append(out, i)
		}
	}
	return out
}

// NumGroups returns the total coded-group count across all layers.
func (e *Engine) NumGroups() int {
	n := 0
	for _, sl := range e.slots {
		if sl == nil {
			continue
		}
		sl.mu.RLock()
		n += sl.m.NumGroups()
		sl.mu.RUnlock()
	}
	return n
}

// WithArrays calls f with the crossbar arrays of one mapped layer while
// holding the layer's write lock, so callers (the fault campaign runner)
// can inject stuck-at or drift faults without racing in-flight reads.
func (e *Engine) WithArrays(layer int, f func(arrays []*crossbar.Array)) error {
	sl := e.slot(layer)
	if sl == nil {
		return fmt.Errorf("accel: layer %d is not mapped", layer)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	f(sl.m.Arrays())
	return nil
}

// WithScrubTargets calls f with the coded groups of one mapped layer while
// holding the layer's write lock, so the patrol scrubber can probe rows,
// re-program drifted cells, and spare worn rows without racing in-flight
// reads (or a concurrent Remap, which takes the same lock).
func (e *Engine) WithScrubTargets(layer int, f func(targets []ScrubTarget)) error {
	sl := e.slot(layer)
	if sl == nil {
		return fmt.Errorf("accel: layer %d is not mapped", layer)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	f(sl.m.ScrubTargets())
	return nil
}

// VerifyStats aggregates the program-verify accounting of every layer's
// current mapping (pulses, convergence histogram, giveups).
func (e *Engine) VerifyStats() crossbar.VerifyTally {
	var t crossbar.VerifyTally
	for _, sl := range e.slots {
		if sl == nil {
			continue
		}
		sl.mu.RLock()
		t.Merge(sl.m.VerifyStats())
		sl.mu.RUnlock()
	}
	return t
}

// Remap re-programs one layer's weight matrix onto spare crossbar arrays:
// the mapping pipeline (quantization, fault characterization, A search,
// table construction, programming) reruns against a fresh fault population
// drawn from a disjoint seed stream, modeling the controller retiring the
// faulted arrays and moving the layer to spares. Faults injected online
// into the retired arrays are gone; the new arrays carry only their own
// map-time draw. The layer is unavailable to readers for the duration of
// the reprogram (they block on the slot lock, as real reprogramming stalls
// reads). Remap keeps the layer's software-fallback flag: whether a
// degraded or drained layer returns to crossbars is SetFallback's call,
// so no reader sees the fresh arrays before that.
func (e *Engine) Remap(layer int) error {
	sl := e.slot(layer)
	if sl == nil {
		return fmt.Errorf("accel: layer %d is not mapped", layer)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	epoch := sl.remaps + 1
	m, err := sl.rebuild(sl.dev, uint64(layer)+uint64(epoch)*remapSeedStride)
	if err != nil {
		return fmt.Errorf("accel: remapping layer %d: %w", layer, err)
	}
	sl.m = m
	sl.remaps = epoch
	sl.mapDev = sl.dev
	return nil
}

// Retune applies an environment-adjusted device model to every mapped
// layer without re-programming: per slot, under the write lock, the noise
// sampler and verify-miss table are rebuilt from the new device while the
// digital cell state, codes, and static tables stay put — a scenario
// engine's temperature or RTN excursion takes effect between in-flight
// MVMs with zero hot-path cost. Subsequent remaps rebuild under the
// retuned device. Structural parameters (BitsPerCell, which fixes the
// array level count) cannot change without a remap.
func (e *Engine) Retune(dev noise.DeviceParams) error {
	if err := dev.Validate(); err != nil {
		return err
	}
	for i, sl := range e.slots {
		if sl == nil {
			continue
		}
		sl.mu.Lock()
		err := sl.m.retuneDevice(dev)
		if err == nil {
			sl.dev = dev
		}
		sl.mu.Unlock()
		if err != nil {
			return fmt.Errorf("accel: retuning layer %d: %w", i, err)
		}
	}
	return nil
}

// ActiveDevice returns the device model currently driving the noise
// sampler — the map-time device until a Retune swaps it.
func (e *Engine) ActiveDevice() noise.DeviceParams {
	for _, sl := range e.slots {
		if sl == nil {
			continue
		}
		sl.mu.RLock()
		dev := sl.dev
		sl.mu.RUnlock()
		return dev
	}
	return e.cfg.Device
}

// RemapCount returns how many times a layer has been re-programmed.
func (e *Engine) RemapCount(layer int) int {
	sl := e.slot(layer)
	if sl == nil {
		return 0
	}
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	return sl.remaps
}

// SetFallback routes a layer to (or back from) the digital fixed-point
// fallback path — the terminal rung of the recovery ladder. The fallback
// matrix is built lazily on first use.
func (e *Engine) SetFallback(layer int, on bool) error {
	sl := e.slot(layer)
	if sl == nil {
		return fmt.Errorf("accel: layer %d is not mapped", layer)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if on && sl.soft == nil {
		soft, err := sl.mkSoft()
		if err != nil {
			return fmt.Errorf("accel: building fallback for layer %d: %w", layer, err)
		}
		sl.soft = soft
	}
	sl.fallback = on
	return nil
}

// Fallback reports whether a layer is served by the software path.
func (e *Engine) Fallback(layer int) bool {
	sl := e.slot(layer)
	if sl == nil {
		return false
	}
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	return sl.fallback
}

// DegradedLayers returns the indices of layers in software fallback, in
// ascending order.
func (e *Engine) DegradedLayers() []int {
	var out []int
	for i, sl := range e.slots {
		if sl == nil {
			continue
		}
		sl.mu.RLock()
		if sl.fallback {
			out = append(out, i)
		}
		sl.mu.RUnlock()
	}
	return out
}

// Session is one concurrent evaluation stream over the engine: per-lane
// noise RNGs, scratch arenas and network clones, and its own statistics.
// Every evaluation is a lockstep walk over lanes 0..B-1 (see batch.go);
// lane 0 is the serial stream that Reseed, Forward, MVMLayer, DrainStats
// and Stats read, so a lone image is a batch of one.
type Session struct {
	engine *Engine
	lanes  []batchLane
	fb     *nn.ForwardBatcher
	// Stats accumulates the serial stream's (lane 0's) ECU and row-error
	// tallies across all inputs it evaluated.
	Stats Stats
	kn    batchKernel

	// reusable per-call state
	one    [1]*nn.Tensor
	oneIdx [1]int
	oneX   [1][]float64
	outs   [][]float64
	errs   []error
	imgs   []mvmImage
	// one-lane backing of outs and imgs, so a session that only ever
	// evaluates one image at a time allocates neither
	outs1 [1][]float64
	imgs1 [1]mvmImage
}

// NewSession creates an evaluation stream with its own noise RNG.
func (e *Engine) NewSession(seed uint64) *Session {
	s := &Session{engine: e, fb: nn.NewForwardBatcher(e.net, e.Layers())}
	s.lanes = []batchLane{s.newLane(seed)}
	s.outs, s.imgs = s.outs1[:0], s.imgs1[:0]
	return s
}

// Reseed repoints the session's noise stream, so callers can key the
// stream to work items (for example one stream per test image) and make
// results independent of how work is distributed across sessions.
func (s *Session) Reseed(stream uint64) {
	stats.ReseedSub(s.lanes[0].src, s.engine.cfg.Seed, stream)
}

// DrainStats returns the statistics accumulated since the last drain and
// resets them (per-layer tallies included), so a serving worker can
// attribute ECU activity to individual requests. It must be called from
// the goroutine that owns the session.
func (s *Session) DrainStats() Stats { return s.DrainBatchStats(0) }

// DrainLayerStats returns the per-layer statistics accumulated since the
// last drain and resets them (the session totals in Stats are left alone —
// drain those separately with DrainStats before re-use). Layers with no
// activity are omitted. It must be called from the goroutine that owns the
// session.
func (s *Session) DrainLayerStats() map[int]Stats {
	out := make(map[int]Stats, len(s.engine.slots))
	s.DrainLayerStatsInto(out)
	return out
}

// DrainLayerStatsInto is DrainLayerStats draining into a caller-owned map
// (cleared first), so a serving worker can reuse one map per request
// instead of allocating. The caller must not retain values across the next
// drain unless it copies them — Stats is a value type, so ordinary reads
// and Merge calls are safe.
func (s *Session) DrainLayerStatsInto(out map[int]Stats) { s.DrainBatchLayerStatsInto(0, out) }

// Forward runs one noisy inference pass on the serial stream: a walk of
// one lane. A malformed input panics.
func (s *Session) Forward(x *nn.Tensor) *nn.Tensor {
	s.one[0] = x
	outs, errs := s.walk(s.one[:])
	if errs[0] != nil {
		panic(errs[0])
	}
	return outs[0]
}

// Predict returns the argmax class under the noisy hardware.
func (s *Session) Predict(x *nn.Tensor) int {
	return s.Forward(x).ArgMax()
}

// PredictTopK returns the k highest-scoring classes.
func (s *Session) PredictTopK(x *nn.Tensor, k int) []int {
	return s.Forward(x).TopK(k)
}
