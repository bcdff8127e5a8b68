// Package serve is the deployment layer over the noisy-crossbar engine: a
// batch scheduler that owns a fixed pool of accelerator sessions, an
// admission queue with backpressure, and an HTTP JSON API that reports the
// per-request ECU telemetry (corrected/detected counts, row error rates)
// the paper frames as the deployment-time reliability contract. Sessions
// are reseeded per request id, so a prediction is a pure function of
// (engine, request seed) and does not depend on which worker served it or
// on what traffic preceded it.
package serve

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/replica"
)

// Config sizes the scheduler and its admission queue.
type Config struct {
	// Workers is the session-pool size — the number of concurrent
	// evaluation streams against the shared mapped arrays (0 = GOMAXPROCS).
	Workers int
	// QueueDepth is the admission-queue capacity. A request arriving with
	// the queue full is rejected immediately (HTTP 429). 0 = 4x workers.
	QueueDepth int
	// QueueTimeout bounds how long an admitted request may wait for a
	// worker; a request dequeued past the deadline is rejected (HTTP 503)
	// instead of burning crossbar reads on an answer nobody is waiting
	// for. 0 = 2s.
	QueueTimeout time.Duration
	// TopK is the default number of ranked classes returned when a request
	// does not ask for a specific k (0 = 3).
	TopK int
	// MaxBatch caps how many queued requests one worker coalesces into a
	// single multi-image layer-MVM pass over the shared arrays. Below the
	// cap a worker takes only its fair share of the pending work —
	// ceil(pending / Workers), pending counting the queue and every
	// request already dequeued and not yet answered — and leaves the rest
	// queued for the other workers, so a burst is split across the pool
	// instead of landing on the first worker free. With one worker that is
	// the whole queue.
	// Each image keeps its own noise stream, so coalescing never changes
	// results — prediction i is the same pure function of (engine, seed)
	// whether it is served alone or with 15 batchmates. 0 = 16; 1 disables
	// coalescing (the pre-batch serial worker, byte for byte).
	MaxBatch int
	// CoalesceWait is how long a worker holds a batch open waiting for
	// batchmates before evaluating. The wait starts only when the queue ran
	// dry before the worker's fair share was reached, and it fills the
	// batch up to MaxBatch. 0 — the default — never waits: the worker takes
	// its share of what is already queued and goes, so an idle pool adds no
	// latency. A small wait (tens of microseconds) trades first-image
	// latency for batch occupancy under bursty arrivals.
	CoalesceWait time.Duration
	// Recovery wires the ECU-driven health monitor and the
	// retry → remap → degrade ladder into the pool. Disabled by default:
	// with it off, a prediction stays a pure function of (engine, seed).
	Recovery RecoveryConfig
	// Pprof registers the net/http/pprof handlers under /debug/pprof/ on
	// the server mux, next to /healthz and /metrics. Off by default:
	// profiling endpoints on a serving port are an operator opt-in.
	Pprof bool
	// Scrub wires the proactive patrol scrubber into the pool — the
	// counterpart to Recovery that repairs arrays before errors can trip a
	// breaker. Disabled by default for the same determinism reason.
	Scrub ScrubConfig
	// Replicas programs every shard's layers onto N independent array sets
	// fronted by a health-aware router: spatial failover ahead of the
	// temporal ladder, majority voting for persistently flagged layers, and
	// detach-for-maintenance without pausing traffic. N <= 1 (the default)
	// is one copy per shard; with Shards 0 as well, that is the bare
	// engine, evaluated on its own session byte for byte.
	Replicas replica.Config
	// Shards partitions the mapped layers into that many contiguous fault
	// domains, each with its own replica set, routing breakers, scrubber
	// rotation, and persistence section — drainable, repairable, and
	// rejoinable through /admin/shards without touching siblings. 0 (the
	// default) runs the same pool as 1, but /admin/shards does not address
	// it and, unreplicated, it answers on the engine session. Predictions
	// are bit-identical at any shard count >= 1, and at 0 when replicated.
	Shards int
	// Admin registers the operator API (/admin/shards, /admin/models) on
	// the server mux. Off by default: mutation endpoints on a serving port
	// are an operator opt-in.
	Admin AdminConfig
	// Plan wires GET /plan: the analytic protection planner run against the
	// live engine, recalibrated by the health monitor's measured rates.
	// Disabled by default (requires an offline calibration).
	Plan PlanConfig
	// Controller wires the closed-loop protection controller: measured
	// rates and breaker state fed back into scrub cadence, vote
	// thresholds, proactive replica maintenance, and pre-emptive
	// degradation, with hysteresis. Requires Recovery.Enabled.
	Controller ControllerConfig
	// Persist wires crash-consistent state persistence: periodic
	// checksummed snapshots of the full device + protection state, and a
	// boot-time restore that resumes the persisted lifetime trajectory.
	// Disabled unless Persist.Dir is set.
	Persist PersistConfig
	// Manual starts no maintenance goroutine: patrol passes, controller
	// ticks and periodic snapshots run only when the owner calls PatrolNow,
	// ControllerTick and SnapshotNow (the Close-time flush stays).
	// Deterministic sweeps and drills use it to put every maintenance duty
	// on the request-step clock.
	Manual bool

	// persistPoll is how often the maintenance loop reads the wear clock
	// for a due snapshot (0 = 250ms; tests shorten it).
	persistPoll time.Duration
	// dequeueHook, when set, runs in the worker loop after each dequeue and
	// before deadline checks (test instrumentation: lets tests hold a
	// worker mid-job to fill the queue deterministically).
	dequeueHook func()
	// batchHook, when set, runs at the top of each coalesced batch pass,
	// before the per-job liveness re-check (test instrumentation: lets
	// tests cancel a batchmate in the window between dequeue filtering and
	// batch assembly).
	batchHook func(jobs []*job)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.persistPoll <= 0 {
		c.persistPoll = 250 * time.Millisecond
	}
	return c
}

// Validate rejects nonsensical sizings before any goroutine starts.
func (c Config) Validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("serve: negative worker count %d", c.Workers)
	case c.QueueDepth < 0:
		return fmt.Errorf("serve: negative queue depth %d", c.QueueDepth)
	case c.QueueTimeout < 0:
		return fmt.Errorf("serve: negative queue timeout %v", c.QueueTimeout)
	case c.TopK < 0:
		return fmt.Errorf("serve: negative top-k %d", c.TopK)
	case c.MaxBatch < 0:
		return fmt.Errorf("serve: negative max batch %d", c.MaxBatch)
	case c.CoalesceWait < 0:
		return fmt.Errorf("serve: negative coalesce wait %v", c.CoalesceWait)
	case c.Shards < 0:
		return fmt.Errorf("serve: negative shard count %d", c.Shards)
	}
	if err := c.Scrub.Validate(); err != nil {
		return err
	}
	if err := c.Replicas.Validate(); err != nil {
		return err
	}
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if err := c.Controller.Validate(); err != nil {
		return err
	}
	if c.Controller.Enabled && !c.Recovery.Enabled {
		return fmt.Errorf("serve: the controller needs Recovery.Enabled — the health monitor is its sensor")
	}
	return c.Recovery.Validate()
}
