package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/persist"
)

// ControllerConfig wires the closed-loop protection controller: a
// maintenance duty that watches the health monitor's measured rates,
// replica breaker state, and scrub tallies, and adjusts the deployed
// protection — patrol cadence, vote threshold, proactive replica
// maintenance, pre-emptive degradation — inside the SLO instead of waiting
// for breakers to trip.
type ControllerConfig struct {
	// Enabled starts the controller. Requires Recovery.Enabled: the
	// monitor is the controller's sensor.
	Enabled bool
	// Interval is the decision tick (0 = 1s; ignored with Config.Manual).
	Interval time.Duration
	// TightenRate is the worst per-layer detected-uncorrectable rate at
	// which the controller starts counting toward a tighten (0 = 0.01).
	// An open breaker anywhere also counts as pressure. At or below a
	// quarter of it the controller counts toward a relax; the band between
	// the two is the deadband: neither streak advances, both reset.
	TightenRate float64
	// Hysteresis is how many consecutive ticks a signal must persist
	// before the protection level moves (0 = 3).
	Hysteresis int
	// Cooldown is how many ticks after a level change the controller
	// refuses further changes, so one excursion cannot flap the level
	// (0 = 2).
	Cooldown int
	// MaxLevel bounds protection tightening (0 = 3). Level L halves the
	// patrol interval L times, down to an eighth of the configured one,
	// and lowers the vote threshold by L.
	MaxLevel int
}

// predictEvery is how many ticks pass between SLO planner recalibrations,
// which pre-emptively degrade the worst-measured layer when the
// recalibrated prediction breaches the SLO (only with Plan.Calibration).
const predictEvery = 8

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.TightenRate == 0 {
		c.TightenRate = 0.01
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = 3
	}
	return c
}

// Validate rejects nonsensical controller settings.
func (c ControllerConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	switch {
	case c.Interval < 0:
		return fmt.Errorf("serve: negative controller interval %v", c.Interval)
	case c.TightenRate < 0 || c.TightenRate > 1:
		return fmt.Errorf("serve: controller tighten rate %g out of [0,1]", c.TightenRate)
	case c.Hysteresis < 0 || c.Cooldown < 0 || c.MaxLevel < 0:
		return fmt.Errorf("serve: negative controller hysteresis/cooldown/level")
	}
	return nil
}

// ctlObservation is one decision tick's sensor snapshot.
type ctlObservation struct {
	// rate is the worst per-layer detected-uncorrectable rate over the
	// primary monitor's windows. Worst, not aggregate: breakers trip per
	// layer and patrol repairs per layer, so a read-weighted average
	// across healthy layers would dilute exactly the signal the
	// actuators answer to.
	rate float64
	// openBreakers counts open primary-monitor breakers plus layers with
	// any open replica routing breaker.
	openBreakers int
}

// controllerCore is the pure hysteresis state machine: feed it one
// observation per tick, get back the level transition. Separated from the
// scheduler so flapping behavior is unit-testable without hardware.
type controllerCore struct {
	cfg           ControllerConfig
	level         int
	tightenStreak int
	relaxStreak   int
	cooldown      int
}

// step advances the state machine one tick. It returns the new level and
// whether this tick tightened or relaxed it. Pressure above TightenRate
// (or any open breaker) must persist Hysteresis consecutive ticks to raise
// the level; calm at or below TightenRate/4 with no open breakers must
// persist the
// same way to lower it; the deadband between resets both streaks. After any
// change the core refuses further changes for Cooldown ticks, so a signal
// oscillating across a threshold cannot flap the level.
func (c *controllerCore) step(obs ctlObservation) (level int, tightened, relaxed bool) {
	pressure := obs.rate >= c.cfg.TightenRate || obs.openBreakers > 0
	calm := obs.rate <= c.cfg.TightenRate/4 && obs.openBreakers == 0
	switch {
	case pressure:
		c.tightenStreak++
		c.relaxStreak = 0
	case calm:
		c.relaxStreak++
		c.tightenStreak = 0
	default:
		c.tightenStreak, c.relaxStreak = 0, 0
	}
	if c.cooldown > 0 {
		c.cooldown--
		return c.level, false, false
	}
	if c.tightenStreak >= c.cfg.Hysteresis && c.level < c.cfg.MaxLevel {
		c.level++
		c.cooldown = c.cfg.Cooldown
		c.tightenStreak = 0
		return c.level, true, false
	}
	if c.relaxStreak >= c.cfg.Hysteresis && c.level > 0 {
		c.level--
		c.cooldown = c.cfg.Cooldown
		c.relaxStreak = 0
		return c.level, false, true
	}
	return c.level, false, false
}

// ControllerStatus is a point-in-time controller snapshot for metrics and
// readiness reporting.
type ControllerStatus struct {
	// Level is the current protection level, 0 (configured baseline) to
	// MaxLevel (tightest).
	Level    int
	MaxLevel int
	// ScrubInterval is the live patrol cadence (0 when scrubbing is off).
	ScrubInterval time.Duration
	// VoteThreshold is the live replica vote trigger (-1 on a bare pool).
	VoteThreshold int
	// Ticks counts decision-loop iterations.
	Ticks uint64
	// Decisions counts applied actions by name (tighten, relax, repair,
	// degrade, predict).
	Decisions map[string]uint64
}

// controller binds the core to the scheduler's actuators.
type controller struct {
	sched *Scheduler
	cfg   ControllerConfig
	// baseScrub and baseVote are the configured operating points level 0
	// returns to.
	baseScrub time.Duration
	baseVote  int

	mu        sync.Mutex
	core      controllerCore
	ticks     uint64
	decisions map[string]uint64
}

// newController builds the controller; boot-time state restoration
// reinstates the core's level before the maintenance loop's first tick.
func newController(sched *Scheduler, cfg ControllerConfig) *controller {
	cfg = cfg.withDefaults()
	c := &controller{
		sched:     sched,
		cfg:       cfg,
		core:      controllerCore{cfg: cfg},
		decisions: make(map[string]uint64),
		baseVote:  sched.cfg.Replicas.VoteThreshold,
	}
	if sched.pat != nil {
		c.baseScrub = sched.pat.baseInterval
	}
	return c
}

// stateSnapshot captures the controller's durable core: the protection level
// and the hysteresis bookkeeping that decides the next transition.
func (c *controller) stateSnapshot() persist.ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := persist.ControllerState{
		Level:         c.core.level,
		TightenStreak: c.core.tightenStreak,
		RelaxStreak:   c.core.relaxStreak,
		Cooldown:      c.core.cooldown,
		Ticks:         c.ticks,
	}
	if len(c.decisions) > 0 {
		st.Decisions = make(map[string]uint64, len(c.decisions))
		for k, v := range c.decisions {
			st.Decisions[k] = v
		}
	}
	return st
}

// checkState validates a controller snapshot against this configuration
// without touching any state.
func (c *controller) checkState(st persist.ControllerState) error {
	if st.Level < 0 || st.Level > c.cfg.MaxLevel {
		return fmt.Errorf("serve: snapshot protection level %d outside [0,%d]", st.Level, c.cfg.MaxLevel)
	}
	if st.TightenStreak < 0 || st.RelaxStreak < 0 || st.Cooldown < 0 {
		return fmt.Errorf("serve: snapshot controller streaks/cooldown negative")
	}
	return nil
}

// restoreState reinstates a persisted controller core and moves the
// actuators (patrol cadence, vote threshold) to the restored level. Must run
// before the maintenance loop starts.
func (c *controller) restoreState(st persist.ControllerState) error {
	if err := c.checkState(st); err != nil {
		return err
	}
	c.mu.Lock()
	c.core.level = st.Level
	c.core.tightenStreak = st.TightenStreak
	c.core.relaxStreak = st.RelaxStreak
	c.core.cooldown = st.Cooldown
	c.ticks = st.Ticks
	c.decisions = make(map[string]uint64, len(st.Decisions))
	for k, v := range st.Decisions {
		c.decisions[k] = v
	}
	c.mu.Unlock()
	c.applyLevel(st.Level)
	return nil
}

// observe snapshots the controller's sensors.
func (c *controller) observe() ctlObservation {
	var obs ctlObservation
	s := c.sched
	if s.rec != nil {
		for _, lr := range s.rec.mon.Rates() {
			if lr.Reads > 0 && lr.Detected > obs.rate {
				obs.rate = lr.Detected
			}
		}
		obs.openBreakers = s.rec.mon.OpenCount()
	}
	obs.openBreakers += len(s.openReplicaLayers())
	return obs
}

// tick runs one decision cycle and returns the applied action names.
func (c *controller) tick() []string {
	obs := c.observe()

	c.mu.Lock()
	c.ticks++
	ticks := c.ticks
	level, tightened, relaxed := c.core.step(obs)
	c.mu.Unlock()

	var actions []string
	if tightened {
		actions = append(actions, "tighten")
	}
	if relaxed {
		actions = append(actions, "relax")
	}
	if tightened || relaxed {
		c.applyLevel(level)
	}
	// Proactive maintenance: once tightened, rotate sick replicas out for
	// repair off the request path instead of waiting for request traffic
	// to trip them.
	if level > 0 && obs.openBreakers > 0 {
		if c.sched.proactiveRepair() > 0 {
			actions = append(actions, "repair")
		}
	}
	if ticks%predictEvery == 0 {
		if a := c.predictAndPreempt(); a != "" {
			actions = append(actions, a)
		}
	}

	if len(actions) > 0 {
		c.mu.Lock()
		for _, a := range actions {
			c.decisions[a]++
		}
		c.mu.Unlock()
	}
	return actions
}

// applyLevel moves the actuators to a protection level: patrol cadence
// halves per level down to an eighth of the base, and the vote threshold
// drops by one per level (voting sooner) to a floor of 1.
func (c *controller) applyLevel(level int) {
	if c.sched.pat != nil {
		c.sched.pat.setInterval(max(c.baseScrub>>uint(level), c.baseScrub/8))
	}
	for _, set := range c.sched.ReplicaSets() {
		set.SetVoteThreshold(c.voteFor(level))
	}
}

// voteFor maps a protection level to a vote threshold. A configured
// threshold drops by one per level (floor 1: voting always needs evidence);
// with voting configured off, level 2+ switches it on at the tightest
// setting — sustained pressure justifies paying the 3-copy read cost.
func (c *controller) voteFor(level int) int {
	if c.baseVote > 0 {
		th := c.baseVote - level
		if th < 1 {
			th = 1
		}
		return th
	}
	if level >= 2 {
		return 1
	}
	return 0
}

// predictAndPreempt folds the monitor's measured rates into the analytic
// planner and, when the recalibrated prediction breaches the SLO,
// pre-emptively degrades the worst-measured layer before accuracy is lost
// to it. Needs the /plan calibration; a no-op otherwise.
func (c *controller) predictAndPreempt() string {
	s := c.sched
	if !s.cfg.Plan.Enabled || s.cfg.Plan.Calibration == nil || s.rec == nil {
		return ""
	}
	plan, rates, err := s.livePlan()
	if err != nil || plan.Satisfied {
		return ""
	}
	// SLO breach predicted: take the worst-measured layer off crossbars.
	sort.Slice(rates, func(i, j int) bool { return rates[i].Detected > rates[j].Detected })
	for _, lr := range rates {
		if lr.Reads == 0 || lr.Detected == 0 || s.eng.Fallback(lr.Layer) {
			continue
		}
		if set := s.setFor(lr.Layer); set != nil && set.SetFallback(lr.Layer, true) == nil {
			s.rec.degrades.Add(1)
			return "degrade"
		}
	}
	return ""
}

// proactiveRepair runs replica maintenance off the request path: repair
// every copy with an open routing breaker, and when none has tripped yet,
// rotate out the sickest copy on the worst-measured layer. Returns replicas
// repaired and verified clean.
func (s *Scheduler) proactiveRepair() int {
	s.escMu.Lock()
	defer s.escMu.Unlock()
	repaired := 0
	open := s.openReplicaLayers()
	for _, layer := range open {
		repaired += s.repairSetLayer(s.setFor(layer), layer, true)
	}
	if len(open) == 0 {
		if layer, ok := s.worstMeasuredLayer(); ok {
			if set := s.setFor(layer); set != nil {
				repaired += s.repairSetLayer(set, layer, false)
			}
		}
	}
	return repaired
}

// worstMeasuredLayer returns the layer with the highest measured detected
// rate over a non-empty window, false when nothing has been measured.
func (s *Scheduler) worstMeasuredLayer() (int, bool) {
	if s.rec == nil {
		return 0, false
	}
	best, rate := 0, -1.0
	for _, lr := range s.rec.mon.Rates() {
		if lr.Reads > 0 && lr.Detected > rate {
			best, rate = lr.Layer, lr.Detected
		}
	}
	return best, rate > 0
}

// status snapshots the controller.
func (c *controller) status() ControllerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ControllerStatus{
		Level:         c.core.level,
		MaxLevel:      c.cfg.MaxLevel,
		ScrubInterval: c.sched.ScrubInterval(),
		VoteThreshold: -1,
		Ticks:         c.ticks,
		Decisions:     make(map[string]uint64, len(c.decisions)),
	}
	if !c.sched.bare() {
		// Shards share one controller level, so any shard's live threshold
		// is the pool's.
		st.VoteThreshold = c.sched.pool.Shard(0).Set().VoteThreshold()
	}
	for k, v := range c.decisions {
		st.Decisions[k] = v
	}
	return st
}

// ControllerTick runs one synchronous decision cycle, returning the applied
// action names. Only a Manual scheduler allows it — otherwise the
// maintenance loop owns the decision cadence.
func (s *Scheduler) ControllerTick() ([]string, error) {
	if s.ctl == nil {
		return nil, fmt.Errorf("serve: controller is disabled")
	}
	if !s.cfg.Manual {
		return nil, fmt.Errorf("serve: maintenance runs in the background; ControllerTick needs Config.Manual")
	}
	return s.ctl.tick(), nil
}

// ControllerStatus snapshots the protection controller; ok is false when it
// is disabled.
func (s *Scheduler) ControllerStatus() (ControllerStatus, bool) {
	if s.ctl == nil {
		return ControllerStatus{}, false
	}
	return s.ctl.status(), true
}
