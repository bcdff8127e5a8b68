package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/scrub"
)

// ScrubConfig wires the patrol scrubber into the pool: a maintenance duty
// that walks one mapped layer of one copy per tick in deterministic
// rotation, heals drifted cells through the verify write path, and spares
// uncorrectable rows — so errors are removed before they can trip the
// reactive ladder's breakers. Repair programming runs with each copy's own
// engine VerifyIters and Seed.
type ScrubConfig struct {
	// Enabled starts the patroller. Off by default: with it off, the
	// engine's arrays are never touched outside requests and predictions
	// stay a pure function of (engine, seed).
	Enabled bool
	// Interval is the pause between patrol attempts (0 = 1s). /readyz flags
	// the scrub as stale once a layer goes 100 intervals unpatrolled.
	Interval time.Duration
}

// withDefaults resolves the zero values.
func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

// Validate rejects nonsensical parameters.
func (c ScrubConfig) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("serve: negative scrub interval %v", c.Interval)
	}
	return nil
}

// ScrubStatus is a point-in-time snapshot of the patroller for metrics and
// readiness reporting.
type ScrubStatus struct {
	// Totals is the lifetime repair accounting.
	Totals scrub.Totals
	// LayerAge maps each mapped layer to the time since its last completed
	// patrol pass (since patroller start for layers not yet reached).
	LayerAge map[int]time.Duration
	// OldestAge is the maximum of LayerAge — the patrol-cycle age.
	OldestAge time.Duration
	// Stale reports OldestAge exceeding 100 configured patrol intervals.
	Stale bool
}

// patroller drives one scrub.Scrubber per programmed copy — per (shard,
// replica) pair. Scrubbers are not concurrency-safe; all patrol calls come
// from the maintenance loop or PatrolNow, and array access is serialized
// against live traffic and remaps by each engine's per-layer write lock.
// Where a copy has siblings the patroller detaches it for the tick, scrubs
// it while its siblings absorb the traffic, and rejoins it — so patrol does
// not have to wait for idle slots.
type patroller struct {
	sched *Scheduler
	scs   []*scrub.Scrubber // one per programmed copy, in (shard, replica) order
	// sets/reps align with scs: the replica set (and replica index within
	// it) each scrubber's engine belongs to, so a patrol pass can detach
	// exactly that copy, and the rotation walks every shard's every copy.
	sets []*replica.Set
	reps []int
	// detachable reports that patrolled copies can be taken out of their
	// serving rotation, so patrol does not need to wait for idle slots.
	detachable bool
	// layers is every mapped layer the rotation covers (staleness view).
	layers []int
	// baseInterval is the configured cadence; curInterval (nanoseconds) is
	// the live one, adjustable by the protection controller between ticks.
	baseInterval time.Duration
	curInterval  atomic.Int64
	cursor       int // copy rotation position

	// scMu owns the scrubbers and the rotation cursor: a patrol pass holds
	// it, and the snapshotter holds it while capturing scrubber state —
	// scrubbers themselves are not concurrency-safe.
	scMu sync.Mutex

	mu       sync.Mutex
	totals   scrub.Totals
	lastPass map[int]time.Time
	started  time.Time
}

// newPatroller builds the patroller; boot-time state restoration positions
// the scrubbers before the maintenance loop's first pass.
func newPatroller(sched *Scheduler, cfg ScrubConfig) *patroller {
	cfg = cfg.withDefaults()
	p := &patroller{
		sched:        sched,
		baseInterval: cfg.Interval,
		lastPass:     make(map[int]time.Time),
		started:      time.Now(),
	}
	p.curInterval.Store(int64(cfg.Interval))
	// Each scrubber covers only its shard's layer slice; together the
	// rotation patrols every copy of every shard.
	for _, set := range sched.ReplicaSets() {
		for r := 0; r < set.Size(); r++ {
			p.scs = append(p.scs, scrub.New(set.Engine(r), engineScrub(set.Engine(r))))
			p.sets = append(p.sets, set)
			p.reps = append(p.reps, r)
			p.detachable = p.detachable || set.Size() > 1
		}
	}
	p.layers = sched.pool.Layers()
	return p
}

// engineScrub is the repair-programming configuration of one copy: its
// engine's own verify bound and seed.
func engineScrub(eng *accel.Engine) scrub.Config {
	return scrub.Config{VerifyIters: eng.Config().VerifyIters, Seed: eng.Config().Seed}
}

// interval returns the live patrol cadence.
func (p *patroller) interval() time.Duration {
	return time.Duration(p.curInterval.Load())
}

// setInterval adjusts the live patrol cadence; the maintenance loop picks
// the new value up when its current wait fires. Non-positive values are
// ignored.
func (p *patroller) setInterval(d time.Duration) {
	if d > 0 {
		p.curInterval.Store(int64(d))
	}
}

// patrolOnce runs one layer's patrol pass on the next copy in rotation and
// publishes its outcome.
func (p *patroller) patrolOnce() {
	p.scMu.Lock()
	defer p.scMu.Unlock()
	r := p.cursor % len(p.scs)
	p.cursor++
	if set := p.sets[r]; set.Size() > 1 {
		// Take the copy out of its serving rotation while its arrays are
		// probed; if it is the last one attached, skip this tick rather
		// than stall traffic behind the layer write lock.
		if err := set.Detach(p.reps[r]); err != nil {
			return
		}
		defer set.Attach(p.reps[r])
	}
	rep, err := p.scs[r].Next()
	if err != nil {
		return
	}
	// A pass that repaired or spared anything removed the error sources the
	// health monitor was accumulating evidence against; reset the layer's
	// breaker window so the scrub finding pre-empts a (now moot) trip.
	if p.sched.rec != nil && rep.CellsReprogrammed+rep.RowsSpared > 0 {
		p.sched.rec.mon.Reset(rep.Layer)
	}
	p.mu.Lock()
	var t scrub.Totals
	for _, sc := range p.scs {
		t.Merge(sc.Totals())
	}
	p.totals = t
	p.lastPass[rep.Layer] = time.Now()
	p.mu.Unlock()
}

// status snapshots the patroller.
func (p *patroller) status() ScrubStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ScrubStatus{
		Totals:   p.totals,
		LayerAge: make(map[int]time.Duration),
	}
	now := time.Now()
	for _, layer := range p.layers {
		last, ok := p.lastPass[layer]
		if !ok {
			last = p.started
		}
		age := now.Sub(last)
		st.LayerAge[layer] = age
		if age > st.OldestAge {
			st.OldestAge = age
		}
	}
	st.Stale = st.OldestAge > 100*p.baseInterval
	return st
}

// stateSnapshot captures the patroller's durable state: the replica rotation
// cursor and every scrubber's rotation/pass position.
func (p *patroller) stateSnapshot() persist.ScrubState {
	p.scMu.Lock()
	defer p.scMu.Unlock()
	st := persist.ScrubState{
		Cursor:    p.cursor,
		Scrubbers: make([]scrub.State, len(p.scs)),
	}
	for i, sc := range p.scs {
		st.Scrubbers[i] = sc.Snapshot()
	}
	return st
}

// checkRestore validates a scrub snapshot against this patroller without
// touching any state; a nil error guarantees restoreState will succeed.
func (p *patroller) checkRestore(st persist.ScrubState) error {
	if len(st.Scrubbers) != len(p.scs) {
		return fmt.Errorf("serve: snapshot has %d scrubbers, patroller has %d", len(st.Scrubbers), len(p.scs))
	}
	if st.Cursor < 0 {
		return fmt.Errorf("serve: snapshot scrub rotation cursor %d is negative", st.Cursor)
	}
	for i, ss := range st.Scrubbers {
		if err := p.scs[i].CheckRestore(ss); err != nil {
			return fmt.Errorf("serve: snapshot scrubber %d: %w", i, err)
		}
	}
	return nil
}

// restoreState positions every scrubber and the rotation cursor at a
// persisted point. All scrubbers are validated before any is touched.
func (p *patroller) restoreState(st persist.ScrubState) error {
	p.scMu.Lock()
	defer p.scMu.Unlock()
	if err := p.checkRestore(st); err != nil {
		return err
	}
	for i, ss := range st.Scrubbers {
		if err := p.scs[i].Restore(ss); err != nil {
			return err // unreachable after checkRestore
		}
	}
	p.cursor = st.Cursor
	return nil
}

// ScrubStatus snapshots the patroller; ok is false when scrubbing is
// disabled.
func (s *Scheduler) ScrubStatus() (ScrubStatus, bool) {
	if s.pat == nil {
		return ScrubStatus{}, false
	}
	return s.pat.status(), true
}

// ScrubInterval returns the live patrol cadence (0 when scrubbing is
// disabled) — the knob the protection controller turns.
func (s *Scheduler) ScrubInterval() time.Duration {
	if s.pat == nil {
		return 0
	}
	return s.pat.interval()
}

// PatrolNow runs one synchronous patrol pass. Only a Manual scheduler
// allows it: otherwise the maintenance loop owns the patrol cadence.
func (s *Scheduler) PatrolNow() error {
	if s.pat == nil {
		return fmt.Errorf("serve: scrubbing is disabled")
	}
	if !s.cfg.Manual {
		return fmt.Errorf("serve: maintenance runs in the background; PatrolNow needs Config.Manual")
	}
	s.pat.patrolOnce()
	return nil
}
