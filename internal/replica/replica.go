// Package replica adds spatial redundancy over the accelerator engine: each
// layer is programmed onto R independent crossbar array sets — independent
// map-time fault populations, independent noise streams, independently
// remappable and scrubbable — fronted by a health-aware router.
//
// The temporal answer to a detected-uncorrectable group read (the ECU's
// in-read retries, the serve ladder's reseeded re-evaluations) re-reads the
// same damaged rows, which is useless against stuck-at faults that read back
// identically every time. Spatial retry re-executes the layer on a sibling
// whose fault population is independent, so the second answer comes from
// different hardware rather than the same hardware again; for persistently
// flagged layers a 3-replica majority vote outvotes the damaged copy even
// when its errors alias into plausible magnitudes. A replica can also be
// detached for remap/scrub/sparing while its siblings keep serving, then
// rejoin after a verify pass — maintenance without the halt-before-drain
// pause a single programmed copy forces.
package replica

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/noise"
)

// maxReplicas bounds the set size: past a handful of copies the area cost
// dwarfs any reliability return (the R-sweep in expt quantifies this).
const maxReplicas = 8

// Config sizes and tunes a replica set.
type Config struct {
	// N is the replica count R; 1 (or 0) means no replication.
	N int
	// VoteThreshold is how many consecutive flagged (detected-uncorrectable)
	// MVMs a layer must accumulate in one router before its reads
	// majority-vote across 3 replicas; 0 disables voting.
	VoteThreshold int
	// VoteTolerance is the relative deviation from the element-wise median
	// at which a voter's output element is tallied as a disagreement
	// (default 0.25). Purely observational: the median is returned either
	// way.
	VoteTolerance float64
	// Monitor tunes the per-replica per-layer health windows that drive
	// routing (zero fields take fault defaults).
	Monitor fault.MonitorConfig
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1
	}
	if c.VoteTolerance <= 0 {
		c.VoteTolerance = 0.25
	}
	return c
}

// Validate rejects nonsensical replication settings.
func (c Config) Validate() error {
	switch {
	case c.N > maxReplicas:
		return fmt.Errorf("replica: %d replicas exceeds the maximum %d", c.N, maxReplicas)
	case c.VoteThreshold < 0:
		return fmt.Errorf("replica: negative vote threshold %d", c.VoteThreshold)
	case c.VoteTolerance < 0:
		return fmt.Errorf("replica: negative vote tolerance %g", c.VoteTolerance)
	}
	return c.Monitor.Validate()
}

// Set is R independently programmed engines over the same network plus the
// routing state: one health monitor per replica, attachment flags, and the
// failover/vote accounting. Engines and monitors are concurrency-safe; the
// attachment flags are guarded here.
type Set struct {
	cfg     Config
	engines []*accel.Engine
	mons    []*fault.Monitor

	mu        sync.RWMutex
	attached  []bool
	nAttached int

	routed        []atomic.Uint64 // layer MVMs served per replica
	failovers     []atomic.Uint64 // flagged MVMs re-executed on a sibling, per flagged replica
	detaches      []atomic.Uint64 // maintenance detach count per replica
	votes         atomic.Uint64   // majority-vote rounds
	disagreements atomic.Uint64   // output elements where a voter was outvoted

	// voteThreshold is the live vote trigger, seeded from
	// cfg.VoteThreshold and adjustable at runtime by the protection
	// controller while sessions read it per flagged MVM.
	voteThreshold atomic.Int64
}

// NewSet programs cfg.N independent copies of the primary engine's network
// and wires the router state. The primary is replica 0; copies 1..N-1 are
// mapped fresh under offset engine seeds, so every copy carries its own
// fault population and noise streams.
func NewSet(primary *accel.Engine, cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Set{
		cfg:       cfg,
		engines:   make([]*accel.Engine, cfg.N),
		mons:      make([]*fault.Monitor, cfg.N),
		attached:  make([]bool, cfg.N),
		nAttached: cfg.N,
		routed:    make([]atomic.Uint64, cfg.N),
		failovers: make([]atomic.Uint64, cfg.N),
		detaches:  make([]atomic.Uint64, cfg.N),
	}
	s.voteThreshold.Store(int64(cfg.VoteThreshold))
	for r := 0; r < cfg.N; r++ {
		eng, err := primary.Replicate(uint64(r))
		if err != nil {
			return nil, fmt.Errorf("replica: programming replica %d: %w", r, err)
		}
		mon, err := fault.NewMonitor(cfg.Monitor)
		if err != nil {
			return nil, err
		}
		s.engines[r], s.mons[r] = eng, mon
		s.attached[r] = true
	}
	return s, nil
}

// Size returns the replica count R.
func (s *Set) Size() int { return len(s.engines) }

// Config returns the resolved replication configuration. Its
// VoteThreshold field is the configured starting point; VoteThreshold()
// reports the live value.
func (s *Set) Config() Config { return s.cfg }

// VoteThreshold returns the live vote trigger: how many consecutive
// flagged reads move a layer to 3-copy voting (0 disables voting).
func (s *Set) VoteThreshold() int { return int(s.voteThreshold.Load()) }

// SetVoteThreshold adjusts the live vote trigger. Negative values clamp
// to 0 (voting off). Safe against concurrent serving sessions — the
// threshold is consulted per flagged MVM, so a tightened value takes
// effect on the next flag.
func (s *Set) SetVoteThreshold(th int) {
	if th < 0 {
		th = 0
	}
	s.voteThreshold.Store(int64(th))
}

// Engine returns replica r's engine (panics out of range, like a slice).
func (s *Set) Engine(r int) *accel.Engine { return s.engines[r] }

// Retune applies an environment-adjusted device model to every replica,
// attached or not — the environment is shared by all physical copies.
func (s *Set) Retune(dev noise.DeviceParams) error {
	for r, eng := range s.engines {
		if err := eng.Retune(dev); err != nil {
			return fmt.Errorf("replica: retuning replica %d: %w", r, err)
		}
	}
	return nil
}

// Monitor returns replica r's routing health monitor.
func (s *Set) Monitor(r int) *fault.Monitor { return s.mons[r] }

// Attached reports whether replica r is in the serving rotation.
func (s *Set) Attached(r int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return r >= 0 && r < len(s.attached) && s.attached[r]
}

// AttachedCount returns how many replicas are currently serving.
func (s *Set) AttachedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nAttached
}

// Detach takes a replica out of the serving rotation for maintenance
// (remap, scrub, sparing) while its siblings keep serving. The last
// attached replica cannot be detached: someone must answer traffic.
func (s *Set) Detach(r int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r < 0 || r >= len(s.attached) {
		return fmt.Errorf("replica: no replica %d in a set of %d", r, len(s.attached))
	}
	if !s.attached[r] {
		return fmt.Errorf("replica: replica %d is already detached", r)
	}
	if s.nAttached == 1 {
		return fmt.Errorf("replica: refusing to detach the last attached replica %d", r)
	}
	s.attached[r] = false
	s.nAttached--
	s.detaches[r].Add(1)
	return nil
}

// Attach returns a detached replica to the rotation and clears its health
// monitor: rejoin happens after a verify pass, so the replica re-earns
// trust from fresh evidence rather than pre-repair history. Idempotent.
func (s *Set) Attach(r int) {
	if r < 0 || r >= len(s.attached) {
		return
	}
	s.mu.Lock()
	if !s.attached[r] {
		s.attached[r] = true
		s.nAttached++
	}
	s.mu.Unlock()
	s.mons[r].ResetAll()
}

// pick chooses the replica to serve one layer MVM: attached replicas whose
// routing breaker for the layer is closed, rotated by (stream, layer) so
// equals share load; when every attached replica's breaker is open, the
// same rotation runs over all attached replicas (the maintenance rung will
// repair them — someone still has to answer). The choice is a pure function
// of (layer, stream, set state), so a prediction stays deterministic given
// the request seed regardless of which worker serves it.
func (s *Set) pick(layer int, stream uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pickLocked(layer, stream, -1)
}

// alternate chooses a spatial-retry target: the same policy as pick with
// replica `not` excluded. ok is false when `not` is the only attached
// replica.
func (s *Set) alternate(layer int, stream uint64, not int) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.pickLocked(layer, stream, not)
	return r, r >= 0
}

func (s *Set) pickLocked(layer int, stream uint64, exclude int) int {
	rot := stream + uint64(layer)
	// First preference: attached with a closed breaker for this layer.
	if r := s.rotateLocked(rot, func(r int) bool {
		return s.attached[r] && r != exclude && s.mons[r].State(layer) == fault.BreakerClosed
	}); r >= 0 {
		return r
	}
	// Everyone eligible is sick: serve from any attached replica.
	return s.rotateLocked(rot, func(r int) bool { return s.attached[r] && r != exclude })
}

// rotateLocked returns the rot-th eligible replica in rotation order, -1
// when none is eligible.
func (s *Set) rotateLocked(rot uint64, eligible func(int) bool) int {
	n := 0
	for r := range s.engines {
		if eligible(r) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := int(rot % uint64(n))
	for r := range s.engines {
		if eligible(r) {
			if k == 0 {
				return r
			}
			k--
		}
	}
	return -1
}

// voters returns up to k attached replicas for a majority vote, closed
// breakers before open ones, ascending replica id within each class — a
// deterministic panel given the set state.
func (s *Set) voters(layer, k int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, k)
	for r := range s.engines {
		if len(out) < k && s.attached[r] && s.mons[r].State(layer) == fault.BreakerClosed {
			out = append(out, r)
		}
	}
	for r := range s.engines {
		if len(out) < k && s.attached[r] && s.mons[r].State(layer) != fault.BreakerClosed {
			out = append(out, r)
		}
	}
	return out
}

// OpenLayers returns the union, across attached replicas, of layers whose
// routing breaker is open — the layers where redundancy is currently
// degraded. The router keeps answers correct by steering around those
// copies, which also keeps the damage invisible to request-level stats, so
// the serve maintenance rung polls this instead of waiting for a
// request-level trip that may never come.
func (s *Set) OpenLayers() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for r := range s.engines {
		if !s.attached[r] {
			continue
		}
		for _, h := range s.mons[r].Snapshot() {
			if h.State != fault.BreakerOpen {
				continue
			}
			seen := false
			for _, l := range out {
				if l == h.Layer {
					seen = true
					break
				}
			}
			if !seen {
				out = append(out, h.Layer)
			}
		}
	}
	sort.Ints(out)
	return out
}

// OpenFor returns the attached replicas whose routing breaker for the layer
// is open — the candidates the serve maintenance rung detaches and repairs.
func (s *Set) OpenFor(layer int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for r := range s.engines {
		if s.attached[r] && s.mons[r].State(layer) == fault.BreakerOpen {
			out = append(out, r)
		}
	}
	return out
}

// SickestFor returns the attached replica with the highest detected-rate
// window for the layer — the repair candidate when a request-level breaker
// trips before any per-replica breaker has enough reads to open. ok is
// false when no attached replica has a nonzero rate or fewer than two are
// attached (with one copy there is no spatial rung to run).
func (s *Set) SickestFor(layer int) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.nAttached < 2 {
		return -1, false
	}
	best, bestRate := -1, 0.0
	for r := range s.engines {
		if !s.attached[r] {
			continue
		}
		if rate := s.mons[r].Rate(layer); rate > bestRate {
			best, bestRate = r, rate
		}
	}
	return best, best >= 0
}

// SetFallback routes a layer to (or back from) the software fixed-point
// path on every replica at once — degradation is a property of the layer,
// not of one copy, so the router must not "fail over" from a degraded
// replica to a sibling still trusting broken crossbars.
func (s *Set) SetFallback(layer int, on bool) error {
	for r, eng := range s.engines {
		if err := eng.SetFallback(layer, on); err != nil {
			return fmt.Errorf("replica: fallback on replica %d: %w", r, err)
		}
	}
	return nil
}

// ReplicaStatus is one replica's row in the operator view.
type ReplicaStatus struct {
	ID       int
	Attached bool
	// OpenLayers are the layers whose routing breaker is open on this
	// replica (traffic is steered away from them).
	OpenLayers []int
	// Routed counts the layer MVMs this replica served.
	Routed uint64
	// Failovers counts flagged MVMs on this replica that were re-executed
	// on a sibling.
	Failovers uint64
	// Detaches counts maintenance detach cycles.
	Detaches uint64
}

// SetStatus is the point-in-time operator view of the whole set.
type SetStatus struct {
	Replicas []ReplicaStatus
	// Votes counts majority-vote rounds across the set's lifetime.
	Votes uint64
	// Disagreements counts output elements where a voter deviated from the
	// element-wise median past the tolerance — the damaged-copy signal.
	Disagreements uint64
}

// Status snapshots the set for /readyz and the mnn_replica_* series.
func (s *Set) Status() SetStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := SetStatus{
		Replicas:      make([]ReplicaStatus, len(s.engines)),
		Votes:         s.votes.Load(),
		Disagreements: s.disagreements.Load(),
	}
	for r := range s.engines {
		rs := ReplicaStatus{
			ID:        r,
			Attached:  s.attached[r],
			Routed:    s.routed[r].Load(),
			Failovers: s.failovers[r].Load(),
			Detaches:  s.detaches[r].Load(),
		}
		for _, h := range s.mons[r].Snapshot() {
			if h.State == fault.BreakerOpen {
				rs.OpenLayers = append(rs.OpenLayers, h.Layer)
			}
		}
		st.Replicas[r] = rs
	}
	return st
}
