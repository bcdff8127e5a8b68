package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/persist"
)

// PersistConfig wires crash-consistent state persistence into the pool: a
// maintenance duty that periodically captures the full device + protection
// state off the request path, and a boot-time restore that resumes the
// exact lifetime trajectory the previous process was killed in.
type PersistConfig struct {
	// Dir is the state directory. Empty disables persistence entirely.
	Dir string
	// Every is how many served requests may elapse between snapshots
	// (0 = 256). Snapshots ride the wear clock, not wall time, so an idle
	// pool writes nothing. The maintenance loop polls the served counter,
	// which keeps the Forward hot path free of any persistence hooks —
	// workers never see the snapshotter.
	Every uint64
}

// withDefaults resolves the zero values.
func (c PersistConfig) withDefaults() PersistConfig {
	if c.Every == 0 {
		c.Every = 256
	}
	return c
}

// RestoreOutcome classifies what the boot-time restore did.
type RestoreOutcome string

const (
	// RestoreFresh means no snapshot existed — a first boot.
	RestoreFresh RestoreOutcome = "fresh"
	// RestoreRestored means the snapshot validated and was applied; the
	// pool resumed the persisted lifetime trajectory.
	RestoreRestored RestoreOutcome = "restored"
	// RestoreFallback means a snapshot existed but was refused (corrupt,
	// wrong schema version, or mismatched against this configuration); the
	// pool booted from a fresh Map instead. Nothing was half-applied.
	RestoreFallback RestoreOutcome = "fallback"
)

// PersistStatus is a point-in-time snapshot of the persister for metrics and
// health reporting.
type PersistStatus struct {
	// Dir is the state directory.
	Dir string
	// Outcome is what the boot-time restore did.
	Outcome RestoreOutcome
	// RestoreErr is why a snapshot was refused ("" unless Outcome is
	// fallback).
	RestoreErr string
	// Saves and SaveErrors count snapshot attempts.
	Saves      uint64
	SaveErrors uint64
	// LastSaveErr is the most recent save failure ("" after a success).
	LastSaveErr string
	// LastSaved is when the last snapshot was published (zero if never).
	LastSaved time.Time
	// SnapshotAge is time since LastSaved (0 when never saved).
	SnapshotAge time.Duration
	// LastServed is the wear-clock reading the last snapshot captured.
	LastServed uint64
}

// persister owns the snapshot lifecycle: boot-time restore, the periodic
// save, and the Close-time flush. All saves serialize through mu so a
// SnapshotNow cannot interleave with the maintenance loop's.
type persister struct {
	sched *Scheduler
	cfg   PersistConfig

	mu          sync.Mutex
	outcome     RestoreOutcome
	restoreErr  error
	saves       uint64
	saveErrors  uint64
	lastSaveErr error
	lastSaved   time.Time
	lastServed  uint64
	// restoredCampaign holds a restored campaign cursor until SetCampaign
	// hands us the runner it belongs to.
	restoredCampaign *fault.RunnerState
}

func newPersister(sched *Scheduler, cfg PersistConfig) *persister {
	return &persister{sched: sched, cfg: cfg.withDefaults(), outcome: RestoreFresh}
}

// bootRestore loads and applies the snapshot in the state directory. It runs
// before any worker or the maintenance goroutine starts, so it owns every
// subsystem. A missing snapshot is a fresh boot; a refused one (corrupt,
// version-mismatched, or inconsistent with this configuration) records
// the fallback outcome and leaves the pool exactly as freshly built
// — the refusal path is fully pre-validated so nothing is half-applied. The
// only errors returned are apply-phase failures that validation cannot rule
// out (a mapping-pipeline rebuild error), which abort the boot rather than
// serve from an engine in an unknown state.
func (per *persister) bootRestore() error {
	st, err := persist.Load(per.cfg.Dir)
	if errors.Is(err, os.ErrNotExist) {
		per.outcome = RestoreFresh
		return nil
	}
	if err != nil {
		per.outcome = RestoreFallback
		per.restoreErr = err
		return nil
	}
	if err := per.check(st); err != nil {
		per.outcome = RestoreFallback
		per.restoreErr = err
		return nil
	}
	if err := per.applyChecked(st); err != nil {
		return fmt.Errorf("serve: applying validated snapshot: %w", err)
	}
	per.outcome = RestoreRestored
	per.lastSaved = time.Now() // the file we just restored from is current
	per.lastServed = st.Scheduler.Served
	return nil
}

// check validates every section of a decoded snapshot against the assembled
// pool without touching any state. A nil error means applyChecked can only
// fail in the deterministic mapping rebuild.
func (per *persister) check(st *persist.State) error {
	s := per.sched
	if st.Shards == nil {
		return fmt.Errorf("serve: snapshot has no shard-pool section — not a serving snapshot, refused")
	}
	if err := s.pool.CheckRestore(*st.Shards); err != nil {
		return err
	}
	// Sections for subsystems this configuration did not arm are refused:
	// silently dropping persisted protection state would diverge the resumed
	// trajectory from the unkilled one. Missing sections are fine — they
	// mean the subsystem was not armed when the snapshot was taken, and it
	// simply starts fresh.
	if st.Monitor != nil {
		if s.rec == nil {
			return fmt.Errorf("serve: snapshot carries monitor state but recovery is disabled")
		}
		if err := st.Monitor.Validate(); err != nil {
			return err
		}
	}
	if st.Recovery != nil && s.rec == nil {
		return fmt.Errorf("serve: snapshot carries recovery counters but recovery is disabled")
	}
	if st.Scrub != nil {
		if s.pat == nil {
			return fmt.Errorf("serve: snapshot carries scrub state but scrubbing is disabled")
		}
		if err := s.pat.checkRestore(*st.Scrub); err != nil {
			return err
		}
	}
	if st.Controller != nil {
		if s.ctl == nil {
			return fmt.Errorf("serve: snapshot carries controller state but the controller is disabled")
		}
		if err := s.ctl.checkState(*st.Controller); err != nil {
			return err
		}
	}
	return nil
}

// applyChecked applies a snapshot check has already validated. The campaign
// cursor cannot be applied yet — the runner is registered after boot via
// SetCampaign — so it is stashed.
func (per *persister) applyChecked(st *persist.State) error {
	s := per.sched
	if err := s.pool.Restore(*st.Shards); err != nil {
		return err
	}
	if st.Monitor != nil {
		if err := s.rec.mon.RestoreState(*st.Monitor); err != nil {
			return err // unreachable after check
		}
	}
	if st.Recovery != nil {
		s.rec.retries.Store(st.Recovery.Retries)
		s.rec.failovers.Store(st.Recovery.Failovers)
		s.rec.remaps.Store(st.Recovery.Remaps)
		s.rec.degrades.Store(st.Recovery.Degrades)
	}
	if st.Scrub != nil {
		if err := s.pat.restoreState(*st.Scrub); err != nil {
			return err // unreachable after check
		}
	}
	if st.Controller != nil {
		if err := s.ctl.restoreState(*st.Controller); err != nil {
			return err // unreachable after check
		}
	}
	s.served.Store(st.Scheduler.Served)
	s.canceled.Store(st.Scheduler.Canceled)
	s.autoSeed.Store(st.Scheduler.AutoSeed)
	s.ecc.Restore(st.Scheduler.ECC)
	per.restoredCampaign = st.Campaign
	return nil
}

// takeRestoredCampaign hands the stashed campaign cursor to SetCampaign,
// exactly once.
func (per *persister) takeRestoredCampaign() *fault.RunnerState {
	per.mu.Lock()
	defer per.mu.Unlock()
	cs := per.restoredCampaign
	per.restoredCampaign = nil
	return cs
}

// snapshotIfDue snapshots once Every requests have been served since the
// last snapshot — the maintenance loop's persistence duty. Failure is
// recorded in status.
func (per *persister) snapshotIfDue() {
	per.mu.Lock()
	due := per.sched.Served()-per.lastServed >= per.cfg.Every
	per.mu.Unlock()
	if due {
		_ = per.snapshotOnce()
	}
}

// snapshotOnce captures the full state tree and writes it atomically.
func (per *persister) snapshotOnce() error {
	per.mu.Lock()
	defer per.mu.Unlock()
	st := per.sched.buildState()
	err := persist.Save(per.cfg.Dir, st)
	per.saves++
	if err != nil {
		per.saveErrors++
		per.lastSaveErr = err
		return err
	}
	per.lastSaveErr = nil
	per.lastSaved = time.Now()
	per.lastServed = st.Scheduler.Served
	return nil
}

// status snapshots the persister.
func (per *persister) status() PersistStatus {
	per.mu.Lock()
	defer per.mu.Unlock()
	st := PersistStatus{
		Dir:        per.cfg.Dir,
		Outcome:    per.outcome,
		Saves:      per.saves,
		SaveErrors: per.saveErrors,
		LastSaved:  per.lastSaved,
		LastServed: per.lastServed,
	}
	if per.restoreErr != nil {
		st.RestoreErr = per.restoreErr.Error()
	}
	if per.lastSaveErr != nil {
		st.LastSaveErr = per.lastSaveErr.Error()
	}
	if !per.lastSaved.IsZero() {
		st.SnapshotAge = time.Since(per.lastSaved)
	}
	return st
}

// buildState assembles the full durable state tree of the pool. Each
// subsystem is captured under its own lock, so every section is internally
// consistent; the scheduler counters are read last so the wear clock never
// runs ahead of the device state it stamps.
func (s *Scheduler) buildState() *persist.State {
	ps := s.pool.Snapshot()
	st := &persist.State{Workload: s.eng.Network().Name, Shards: &ps}
	if s.rec != nil {
		ms := s.rec.mon.StateSnapshot()
		st.Monitor = &ms
		st.Recovery = &persist.RecoveryState{
			Retries:   s.rec.retries.Load(),
			Failovers: s.rec.failovers.Load(),
			Remaps:    s.rec.remaps.Load(),
			Degrades:  s.rec.degrades.Load(),
		}
	}
	if s.pat != nil {
		ps := s.pat.stateSnapshot()
		st.Scrub = &ps
	}
	if s.ctl != nil {
		cs := s.ctl.stateSnapshot()
		st.Controller = &cs
	}
	s.campMu.Lock()
	if s.camp != nil {
		rs := s.camp.Snapshot()
		st.Campaign = &rs
	}
	s.campMu.Unlock()
	st.Scheduler = persist.SchedulerState{
		Served:   s.served.Load(),
		Canceled: s.canceled.Load(),
		AutoSeed: s.autoSeed.Load(),
		ECC:      s.ecc.Snapshot(),
	}
	return st
}

// SnapshotNow captures and atomically publishes a snapshot immediately,
// regardless of the wear clock. Safe concurrently with live traffic and the
// maintenance loop.
func (s *Scheduler) SnapshotNow() error {
	if s.per == nil {
		return fmt.Errorf("serve: persistence is disabled")
	}
	return s.per.snapshotOnce()
}

// PersistStatus snapshots the persister; ok is false when persistence is
// disabled.
func (s *Scheduler) PersistStatus() (PersistStatus, bool) {
	if s.per == nil {
		return PersistStatus{}, false
	}
	return s.per.status(), true
}

// SetCampaign registers the fault-campaign runner driving this pool's wear
// clock, so snapshots capture its cursor. If the boot-time restore carried a
// campaign cursor, it is applied to the runner now; an error means the
// persisted cursor does not belong to this campaign — the caller should log
// it loudly and let the runner proceed from its own position.
func (s *Scheduler) SetCampaign(r *fault.Runner) error {
	s.campMu.Lock()
	s.camp = r
	s.campMu.Unlock()
	if s.per == nil || r == nil {
		return nil
	}
	if cs := s.per.takeRestoredCampaign(); cs != nil {
		return r.Restore(*cs)
	}
	return nil
}
