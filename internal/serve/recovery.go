package serve

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/scrub"
)

// retrySeedStride separates recovery-retry noise streams from the request's
// own stream and from other attempts (client seeds and scheduler auto-seeds
// live far below bit 56).
const retrySeedStride = uint64(1) << 56

// RecoveryConfig wires the ECU-driven health monitor and the
// retry → remap → degrade ladder into the scheduler. The zero value
// disables recovery entirely, preserving the pure
// prediction = f(engine, seed) contract.
type RecoveryConfig struct {
	// Enabled turns the ladder on.
	Enabled bool
	// Monitor tunes the per-layer breaker (zero fields take fault
	// defaults).
	Monitor fault.MonitorConfig
	// RetryAttempts bounds rung 1: re-evaluations with a reseeded session
	// before concluding the fault is persistent. Default 2.
	RetryAttempts int
	// RetryBackoff is the base pause before the first retry; each further
	// attempt doubles it (capped at RetryBackoffMax) and adds uniform
	// jitter up to the doubled value, so a burst of tripped workers does
	// not hammer a struggling layer in lockstep. The jitter RNG is seeded
	// from (request seed, attempt), so sleep lengths are deterministic in
	// tests. Default 2ms; negative disables.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential growth of the retry pause.
	// Default 8x RetryBackoff.
	RetryBackoffMax time.Duration
	// MaxRemaps bounds rung 2: how many times a layer may be
	// re-programmed onto spare arrays over its lifetime before the ladder
	// stops trusting crossbars and degrades it to the software path.
	// Default 1; negative means never remap (degrade immediately).
	MaxRemaps int
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 8 * c.RetryBackoff
	}
	if c.MaxRemaps == 0 {
		c.MaxRemaps = 1
	}
	return c
}

// Validate rejects nonsensical ladder settings.
func (c RecoveryConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.RetryAttempts < 0 {
		return fmt.Errorf("serve: negative retry attempts %d", c.RetryAttempts)
	}
	return c.Monitor.Validate()
}

// RecoveryCounters are the lifetime ladder-transition tallies.
type RecoveryCounters struct {
	// Retries counts rung-1 re-evaluations.
	Retries uint64
	// Failovers counts spatial repairs: replicas detached, re-programmed,
	// verified, and rejoined while their siblings kept serving (replicated
	// pools only).
	Failovers uint64
	// Remaps counts rung-2 layer re-programmings.
	Remaps uint64
	// Degrades counts rung-3 transitions to the software path.
	Degrades uint64
}

// recoveryState is the scheduler's ladder bookkeeping.
type recoveryState struct {
	cfg RecoveryConfig
	mon *fault.Monitor

	retries   atomic.Uint64
	failovers atomic.Uint64
	remaps    atomic.Uint64
	degrades  atomic.Uint64
}

func newRecoveryState(cfg RecoveryConfig) (*recoveryState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	mon, err := fault.NewMonitor(cfg.Monitor)
	if err != nil {
		return nil, err
	}
	return &recoveryState{cfg: cfg, mon: mon}, nil
}

// recover runs the ladder for one request whose traffic tripped the given
// layers. It returns a replacement prediction evaluated on recovered (or
// degraded) hardware; the original result is never returned once the
// breaker is open, because its answer was computed through a layer the
// monitor no longer trusts.
func (s *Scheduler) recover(w *workerState, j *job, open []int) (Prediction, error) {
	rec := s.rec
	var retries int

	// Rung 1 — retry: a giant-RTN burst or an unlucky noise draw is
	// transient; a reseeded re-evaluation that comes back clean on every
	// suspect layer closes the breaker with no hardware action.
	for attempt := 1; attempt <= rec.cfg.RetryAttempts; attempt++ {
		rec.retries.Add(1)
		retries = attempt
		s.backoff(attempt, j.seed)
		pred, err := s.evaluate(w, j, j.seed+uint64(attempt)*retrySeedStride)
		if err != nil {
			return Prediction{}, err
		}
		suspect := false
		for _, layer := range open {
			if st, ok := w.perLayer[layer]; !ok || st.DetectedRate() > rec.cfg.Monitor.TripRate {
				suspect = true
				break
			}
		}
		if !suspect {
			// With replicas, a clean retry often means the router steered
			// around a damaged copy rather than the fault being transient;
			// the ladder's openReplicaLayers poll, right after this
			// returns, repairs any copy whose own breaker is open.
			for _, layer := range open {
				rec.mon.Reset(layer)
			}
			pred.LadderRetries = retries
			pred.Seed = j.seed + uint64(attempt)*retrySeedStride
			return pred, nil
		}
	}

	// The fault is persistent: escalate to the hardware rungs — repair a
	// sick copy, re-program the layer onto spares, or if its remap budget is
	// spent, degrade it to the software fixed-point path.
	var remapped []int
	for _, layer := range open {
		action, err := s.escalate(layer)
		if err != nil {
			return Prediction{}, err
		}
		if action == actionRemap {
			remapped = append(remapped, layer)
		}
	}

	// Final evaluation on the recovered substrate, back on the request's
	// own seed so the response stays replayable against the new hardware
	// state.
	pred, err := s.evaluate(w, j, j.seed)
	if err != nil {
		return Prediction{}, err
	}
	pred.LadderRetries = retries
	pred.Remapped = remapped
	return pred, nil
}

type escalation int

const (
	actionNone escalation = iota
	actionFailover
	actionRemap
	actionDegrade
)

// escalate applies the hardware rungs to one tripped layer, inside the
// shard that owns it. The scheduler-wide mutex plus a breaker re-check make
// the action exactly-once when several workers trip on the same layer
// concurrently. The first rung that applies wins:
//
//  1. spatial repair of the layer's sick copies while their siblings keep
//     serving (a one-copy set refuses the detach, so a bare engine skips it);
//  2. nothing, when the layer already serves from software;
//  3. while its remap budget lasts, remap the layer on every copy;
//  4. otherwise move the layer to the software path on every copy.
//
// Remapping and degradation are properties of the layer, never of one copy
// or of the layer's shard siblings.
func (s *Scheduler) escalate(layer int) (escalation, error) {
	s.escMu.Lock()
	defer s.escMu.Unlock()
	if s.rec.mon.State(layer) != fault.BreakerOpen {
		return actionNone, nil // another worker already recovered it
	}
	defer s.rec.mon.Reset(layer)
	set := s.setFor(layer)
	if set == nil {
		return actionNone, fmt.Errorf("serve: breaker tripped on layer %d no shard owns", layer)
	}
	if s.repairSetLayer(set, layer, false) > 0 {
		return actionFailover, nil
	}
	if set.Engine(0).Fallback(layer) {
		return actionNone, nil
	}
	if set.Engine(0).RemapCount(layer) < s.rec.cfg.MaxRemaps {
		for r := 0; r < set.Size(); r++ {
			if err := set.Engine(r).Remap(layer); err != nil {
				return actionNone, fmt.Errorf("serve: recovery remap: %w", err)
			}
			// Fresh arrays re-earn routing trust from fresh evidence.
			set.Monitor(r).Reset(layer)
		}
		s.rec.remaps.Add(1)
		return actionRemap, nil
	}
	if err := set.SetFallback(layer, true); err != nil {
		return actionNone, fmt.Errorf("serve: recovery degrade: %w", err)
	}
	s.rec.degrades.Add(1)
	return actionDegrade, nil
}

// setFor returns the replica set of the shard owning a layer (nil for an
// unmapped layer).
func (s *Scheduler) setFor(layer int) *replica.Set {
	if sh := s.pool.Owner(layer); sh != nil {
		return sh.Set()
	}
	return nil
}

// openReplicaLayers returns the layers with an open per-replica routing
// breaker in any set that has a sibling to repair from. A one-copy set has
// no spatial rung, so it is skipped — which also keeps this per-request
// poll free on a bare pool.
func (s *Scheduler) openReplicaLayers() []int {
	var sick []int
	for i := 0; i < s.pool.Size(); i++ {
		if set := s.pool.Shard(i).Set(); set.Size() > 1 {
			sick = append(sick, set.OpenLayers()...)
		}
	}
	return sick
}

// maintainReplicas repairs, for each tripped layer, any replica whose own
// routing breaker is open — the background half of spatial recovery, run
// once the request itself has a clean answer. A layer with no open routing
// breaker is skipped without taking escMu.
func (s *Scheduler) maintainReplicas(open []int) {
	for _, layer := range open {
		if set := s.setFor(layer); set != nil && len(set.OpenFor(layer)) > 0 {
			s.escMu.Lock()
			s.repairSetLayer(set, layer, true)
			s.escMu.Unlock()
		}
	}
}

// repairSetLayer runs the detach → remap → verify → rejoin cycle on the
// replicas of one set whose routing breaker for the layer is open (or, when
// openOnly is false and none has tripped yet, on the attached replica with
// the worst detected-rate window). Siblings keep serving throughout — this
// is the no-downtime maintenance a single programmed copy cannot have, and
// it is why MaxRemaps does not apply here: that budget bounds inline remaps
// that stall traffic, while a detached copy can be re-programmed as often
// as the wear-out demands without anyone waiting. Returns the number of
// replicas repaired and verified clean. A repair leaves each copy's
// software-fallback flag as it found it, so a layer degraded on every copy
// stays degraded on every copy. Caller holds escMu.
func (s *Scheduler) repairSetLayer(set *replica.Set, layer int, openOnly bool) int {
	candidates := set.OpenFor(layer)
	if len(candidates) == 0 && !openOnly {
		if r, ok := set.SickestFor(layer); ok {
			candidates = []int{r}
		}
	}
	repaired := 0
	for _, r := range candidates {
		eng := set.Engine(r)
		if err := set.Detach(r); err != nil {
			continue // last attached replica: someone must keep serving
		}
		rep, err := scrub.Reprogram(eng, layer)
		// Rejoin either way: a copy that failed verification re-earns (or
		// re-loses) trust from fresh evidence, and its breaker steers
		// traffic away again if the damage persists.
		set.Attach(r)
		if err == nil && rep.Clean() {
			s.rec.failovers.Add(1)
			repaired++
		}
	}
	return repaired
}

// backoff sleeps the jittered exponential retry pause (tests with
// RetryBackoff < 0 skip sleeping entirely).
func (s *Scheduler) backoff(attempt int, seed uint64) {
	if d := backoffDelay(s.rec.cfg.RetryBackoff, s.rec.cfg.RetryBackoffMax, attempt, seed); d > 0 {
		time.Sleep(d)
	}
}

// backoffDelay computes the pause before retry `attempt` (1-based): the base
// doubles per attempt, capped at max, plus uniform jitter up to the capped
// value. The jitter RNG is derived from (seed, attempt), so delays are a
// pure function of the request — deterministic under test seeds and never
// consuming shared RNG state.
func backoffDelay(base, max time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0 // attempt 0 or negative: treat as the first attempt
	}
	if shift > 20 {
		shift = 20 // past this the cap always wins; avoid shifting into the sign bit
	}
	d := base << shift
	if d < base {
		d = base // a pathological base shifted past int64 wraps; the cap decides below
	}
	if max > 0 && d > max {
		d = max
	}
	rng := rand.New(rand.NewPCG(seed, uint64(attempt)))
	return d + time.Duration(rng.Int64N(int64(d)))
}

// RecoveryCounters returns the lifetime ladder tallies (zero when recovery
// is disabled).
func (s *Scheduler) RecoveryCounters() RecoveryCounters {
	if s.rec == nil {
		return RecoveryCounters{}
	}
	return RecoveryCounters{
		Retries:   s.rec.retries.Load(),
		Failovers: s.rec.failovers.Load(),
		Remaps:    s.rec.remaps.Load(),
		Degrades:  s.rec.degrades.Load(),
	}
}

// Health returns the monitor's per-layer snapshot (nil when recovery is
// disabled).
func (s *Scheduler) Health() []fault.LayerHealth {
	if s.rec == nil {
		return nil
	}
	return s.rec.mon.Snapshot()
}

// Monitor exposes the health monitor (nil when recovery is disabled); fault
// campaigns and tests use it to inspect or force breaker state.
func (s *Scheduler) Monitor() *fault.Monitor {
	if s.rec == nil {
		return nil
	}
	return s.rec.mon
}
