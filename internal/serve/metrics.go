package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Request-counter outcome labels.
const (
	outcomeOK         = "ok"
	outcomeBadRequest = "bad_request"
	outcomeQueueFull  = "queue_full"
	outcomeTimeout    = "timeout"
	outcomeCanceled   = "canceled"
	outcomeError      = "error"
)

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// batchSizeBuckets are the coalesced-batch-size histogram bounds (images
// per worker pass).
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// coalesceWaitBuckets are the histogram bounds, in seconds, for how long a
// worker held a dequeued request open gathering batchmates.
var coalesceWaitBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}

// batchTelemetry accumulates the scheduler's coalescing histograms: how
// large the multi-image passes actually are, and what the coalescing added
// to queue latency. Updated once per worker pass, not per image.
type batchTelemetry struct {
	mu        sync.Mutex
	sizeCount []uint64
	sizeSum   uint64
	waitCount []uint64
	waitSum   float64
	n         uint64
}

func (b *batchTelemetry) observe(size int, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sizeCount == nil {
		b.sizeCount = make([]uint64, len(batchSizeBuckets)+1)
		b.waitCount = make([]uint64, len(coalesceWaitBuckets)+1)
	}
	idx := len(batchSizeBuckets)
	for i, ub := range batchSizeBuckets {
		if float64(size) <= ub {
			idx = i
			break
		}
	}
	b.sizeCount[idx]++
	b.sizeSum += uint64(size)
	sec := wait.Seconds()
	idx = len(coalesceWaitBuckets)
	for i, ub := range coalesceWaitBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	b.waitCount[idx]++
	b.waitSum += sec
	b.n++
}

// BatchStatus is a scrape-time snapshot of the coalescing telemetry.
type BatchStatus struct {
	// SizeCount / WaitCount are per-bucket tallies aligned with
	// batchSizeBuckets / coalesceWaitBuckets, one extra slot for +Inf.
	SizeCount []uint64
	WaitCount []uint64
	// SizeSum is the total images served through worker passes, WaitSum the
	// total coalesce-hold seconds, Batches the number of passes.
	SizeSum uint64
	WaitSum float64
	Batches uint64
	// BatchMVMs is the cumulative count of per-image layer MVMs evaluated
	// through the coalesced kernel. It lives here — not in the per-request
	// Stats — because which path served an image is pool telemetry, never
	// part of the (engine, seed)-pure answer.
	BatchMVMs uint64
}

func (b *batchTelemetry) snapshot() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatus{SizeSum: b.sizeSum, WaitSum: b.waitSum, Batches: b.n}
	st.SizeCount = append(st.SizeCount, b.sizeCount...)
	st.WaitCount = append(st.WaitCount, b.waitCount...)
	return st
}

// BatchStatus returns the scheduler's coalescing snapshot.
func (s *Scheduler) BatchStatus() BatchStatus {
	st := s.bat.snapshot()
	st.BatchMVMs = s.ecc.Snapshot().BatchMVMs
	return st
}

// Metrics accumulates serving telemetry and renders it in the Prometheus
// text exposition format. One mutex guards everything: scrapes and updates
// are both rare relative to crossbar reads.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]uint64
	images   uint64
	latCount []uint64 // per bucket; one extra slot for +Inf
	latSum   float64
	latN     uint64
	ecc      accel.Stats
}

func newMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]uint64),
		latCount: make([]uint64, len(latencyBuckets)+1),
	}
}

// observe records one finished request: its outcome, how many images it
// carried, its wall time, and the ECU activity it caused (merged into the
// cumulative tallies via Stats.Merge).
func (m *Metrics) observe(outcome string, images int, dur time.Duration, st accel.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[outcome]++
	m.images += uint64(images)
	sec := dur.Seconds()
	m.latSum += sec
	m.latN++
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	m.latCount[idx]++
	m.ecc.Merge(st)
}

// ECCSnapshot returns the cumulative ECU tallies.
func (m *Metrics) ECCSnapshot() accel.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ecc
}

// GaugeView carries the live values a scrape samples from the scheduler
// and engine (they belong there, not in the accumulator).
type GaugeView struct {
	QueueDepth     int
	Workers        int
	Health         []fault.LayerHealth // nil when recovery is disabled
	DegradedLayers []int
	Recovery       RecoveryCounters
	// Scrub is the patroller snapshot (nil when scrubbing is disabled).
	Scrub *ScrubStatus
	// Verify is the cumulative closed-loop programming accounting —
	// mapping-time plus every scrub repair (nil when unavailable).
	Verify *crossbar.VerifyTally
	// Shards is the per-fault-domain snapshot (nil when unsharded).
	Shards []shard.ShardStatus
	// Replicas is the replica-set snapshot (nil without replication).
	Replicas *replica.SetStatus
	// Controller is the protection-controller snapshot (nil when disabled).
	Controller *ControllerStatus
	// Persist is the snapshotter status (nil when persistence is disabled).
	Persist *PersistStatus
	// Batch is the scheduler's coalescing snapshot (zero Batches before
	// any traffic).
	Batch BatchStatus
	// Device is the active device model's library name ("" when custom).
	Device string
	// Scheme is the deployed protection scheme name.
	Scheme string
}

// WritePrometheus renders every metric.
func (m *Metrics) WritePrometheus(w io.Writer, g GaugeView) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP mnn_build_info Deployment identity; the labels carry the active device model and protection scheme.\n")
	fmt.Fprintf(w, "# TYPE mnn_build_info gauge\n")
	fmt.Fprintf(w, "mnn_build_info{device=%q,scheme=%q} 1\n", g.Device, g.Scheme)

	fmt.Fprintf(w, "# HELP mnn_requests_total Predict requests by outcome.\n")
	fmt.Fprintf(w, "# TYPE mnn_requests_total counter\n")
	outcomes := make([]string, 0, len(m.requests))
	for o := range m.requests {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Fprintf(w, "mnn_requests_total{outcome=%q} %d\n", o, m.requests[o])
	}

	fmt.Fprintf(w, "# HELP mnn_images_total Images classified.\n")
	fmt.Fprintf(w, "# TYPE mnn_images_total counter\n")
	fmt.Fprintf(w, "mnn_images_total %d\n", m.images)

	fmt.Fprintf(w, "# HELP mnn_queue_depth Requests waiting in the admission queue.\n")
	fmt.Fprintf(w, "# TYPE mnn_queue_depth gauge\n")
	fmt.Fprintf(w, "mnn_queue_depth %d\n", g.QueueDepth)

	fmt.Fprintf(w, "# HELP mnn_workers Session-pool size.\n")
	fmt.Fprintf(w, "# TYPE mnn_workers gauge\n")
	fmt.Fprintf(w, "mnn_workers %d\n", g.Workers)

	fmt.Fprintf(w, "# HELP mnn_request_seconds Request wall time.\n")
	fmt.Fprintf(w, "# TYPE mnn_request_seconds histogram\n")
	cum := uint64(0)
	for i, ub := range latencyBuckets {
		cum += m.latCount[i]
		fmt.Fprintf(w, "mnn_request_seconds_bucket{le=%q} %d\n", formatFloat(ub), cum)
	}
	fmt.Fprintf(w, "mnn_request_seconds_bucket{le=\"+Inf\"} %d\n", m.latN)
	fmt.Fprintf(w, "mnn_request_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "mnn_request_seconds_count %d\n", m.latN)

	fmt.Fprintf(w, "# HELP mnn_ecc_reads_total Coded group reads by ECU outcome.\n")
	fmt.Fprintf(w, "# TYPE mnn_ecc_reads_total counter\n")
	fmt.Fprintf(w, "mnn_ecc_reads_total{status=\"clean\"} %d\n", m.ecc.Clean)
	fmt.Fprintf(w, "mnn_ecc_reads_total{status=\"corrected\"} %d\n", m.ecc.Corrected)
	fmt.Fprintf(w, "mnn_ecc_reads_total{status=\"detected\"} %d\n", m.ecc.Detected)

	fmt.Fprintf(w, "# HELP mnn_ecc_retries_total Re-reads after detected-uncorrectable errors.\n")
	fmt.Fprintf(w, "# TYPE mnn_ecc_retries_total counter\n")
	fmt.Fprintf(w, "mnn_ecc_retries_total %d\n", m.ecc.Retries)

	fmt.Fprintf(w, "# HELP mnn_ecc_residual_total Decodes with nonzero remainder (errors past the ECU).\n")
	fmt.Fprintf(w, "# TYPE mnn_ecc_residual_total counter\n")
	fmt.Fprintf(w, "mnn_ecc_residual_total %d\n", m.ecc.Residual)

	fmt.Fprintf(w, "# HELP mnn_row_reads_total Physical-row ADC conversions.\n")
	fmt.Fprintf(w, "# TYPE mnn_row_reads_total counter\n")
	fmt.Fprintf(w, "mnn_row_reads_total %d\n", m.ecc.RowReads)

	fmt.Fprintf(w, "# HELP mnn_row_errors_total Row reads whose quantized output deviated from ideal.\n")
	fmt.Fprintf(w, "# TYPE mnn_row_errors_total counter\n")
	fmt.Fprintf(w, "mnn_row_errors_total %d\n", m.ecc.RowErrors)

	fmt.Fprintf(w, "# HELP mnn_soft_mvms_total Matrix-vector products answered by the software fallback.\n")
	fmt.Fprintf(w, "# TYPE mnn_soft_mvms_total counter\n")
	fmt.Fprintf(w, "mnn_soft_mvms_total %d\n", m.ecc.SoftMVMs)

	fmt.Fprintf(w, "# HELP mnn_batch_mvms_total Per-image layer MVMs served through the coalesced multi-image kernel.\n")
	fmt.Fprintf(w, "# TYPE mnn_batch_mvms_total counter\n")
	fmt.Fprintf(w, "mnn_batch_mvms_total %d\n", g.Batch.BatchMVMs)

	fmt.Fprintf(w, "# HELP mnn_batch_size Images per worker evaluation pass (1 = no coalescing).\n")
	fmt.Fprintf(w, "# TYPE mnn_batch_size histogram\n")
	cumB := uint64(0)
	for i, ub := range batchSizeBuckets {
		if i < len(g.Batch.SizeCount) {
			cumB += g.Batch.SizeCount[i]
		}
		fmt.Fprintf(w, "mnn_batch_size_bucket{le=%q} %d\n", formatFloat(ub), cumB)
	}
	fmt.Fprintf(w, "mnn_batch_size_bucket{le=\"+Inf\"} %d\n", g.Batch.Batches)
	fmt.Fprintf(w, "mnn_batch_size_sum %d\n", g.Batch.SizeSum)
	fmt.Fprintf(w, "mnn_batch_size_count %d\n", g.Batch.Batches)

	fmt.Fprintf(w, "# HELP mnn_batch_coalesce_wait_seconds Time a worker held a dequeued request open gathering batchmates.\n")
	fmt.Fprintf(w, "# TYPE mnn_batch_coalesce_wait_seconds histogram\n")
	cumW := uint64(0)
	for i, ub := range coalesceWaitBuckets {
		if i < len(g.Batch.WaitCount) {
			cumW += g.Batch.WaitCount[i]
		}
		fmt.Fprintf(w, "mnn_batch_coalesce_wait_seconds_bucket{le=%q} %d\n", formatFloat(ub), cumW)
	}
	fmt.Fprintf(w, "mnn_batch_coalesce_wait_seconds_bucket{le=\"+Inf\"} %d\n", g.Batch.Batches)
	fmt.Fprintf(w, "mnn_batch_coalesce_wait_seconds_sum %g\n", g.Batch.WaitSum)
	fmt.Fprintf(w, "mnn_batch_coalesce_wait_seconds_count %d\n", g.Batch.Batches)

	if g.Health != nil {
		fmt.Fprintf(w, "# HELP mnn_breaker_open Per-layer health-breaker state (1 = open).\n")
		fmt.Fprintf(w, "# TYPE mnn_breaker_open gauge\n")
		fmt.Fprintf(w, "# HELP mnn_breaker_trips_total Lifetime breaker trips per layer.\n")
		fmt.Fprintf(w, "# TYPE mnn_breaker_trips_total counter\n")
		for _, h := range g.Health {
			open := 0
			if h.State == fault.BreakerOpen {
				open = 1
			}
			fmt.Fprintf(w, "mnn_breaker_open{layer=\"%d\"} %d\n", h.Layer, open)
			fmt.Fprintf(w, "mnn_breaker_trips_total{layer=\"%d\"} %d\n", h.Layer, h.Trips)
		}

		fmt.Fprintf(w, "# HELP mnn_recovery_actions_total Recovery-ladder transitions by rung.\n")
		fmt.Fprintf(w, "# TYPE mnn_recovery_actions_total counter\n")
		fmt.Fprintf(w, "mnn_recovery_actions_total{rung=\"retry\"} %d\n", g.Recovery.Retries)
		fmt.Fprintf(w, "mnn_recovery_actions_total{rung=\"failover\"} %d\n", g.Recovery.Failovers)
		fmt.Fprintf(w, "mnn_recovery_actions_total{rung=\"remap\"} %d\n", g.Recovery.Remaps)
		fmt.Fprintf(w, "mnn_recovery_actions_total{rung=\"degrade\"} %d\n", g.Recovery.Degrades)
	}

	if len(g.Shards) > 0 {
		fmt.Fprintf(w, "# HELP mnn_shard_state Per-shard fault-domain state (one-hot over serving/draining/degraded).\n")
		fmt.Fprintf(w, "# TYPE mnn_shard_state gauge\n")
		for _, sh := range g.Shards {
			// "degraded" stays a series so dashboards keep their shape; the
			// per-layer ladder never takes a whole shard off the crossbars,
			// so it reads 0.
			for _, st := range []string{"serving", "draining", "degraded"} {
				v := 0
				if sh.State == st {
					v = 1
				}
				fmt.Fprintf(w, "mnn_shard_state{shard=\"%d\",state=%q} %d\n", sh.ID, st, v)
			}
		}

		fmt.Fprintf(w, "# HELP mnn_shard_layers Layers owned by each shard.\n")
		fmt.Fprintf(w, "# TYPE mnn_shard_layers gauge\n")
		fmt.Fprintf(w, "# HELP mnn_shard_degraded_layers Shard layers currently on the software path.\n")
		fmt.Fprintf(w, "# TYPE mnn_shard_degraded_layers gauge\n")
		fmt.Fprintf(w, "# HELP mnn_shard_breaker_open_layers Shard layers with an open routing breaker on any of its replicas.\n")
		fmt.Fprintf(w, "# TYPE mnn_shard_breaker_open_layers gauge\n")
		for _, sh := range g.Shards {
			fmt.Fprintf(w, "mnn_shard_layers{shard=\"%d\"} %d\n", sh.ID, len(sh.Layers))
			fmt.Fprintf(w, "mnn_shard_degraded_layers{shard=\"%d\"} %d\n", sh.ID, len(sh.DegradedLayers))
			open := 0
			for _, r := range sh.Replicas.Replicas {
				open += len(r.OpenLayers)
			}
			fmt.Fprintf(w, "mnn_shard_breaker_open_layers{shard=\"%d\"} %d\n", sh.ID, open)
		}

		fmt.Fprintf(w, "# HELP mnn_shard_maintenance_total Shard lifecycle transitions by kind.\n")
		fmt.Fprintf(w, "# TYPE mnn_shard_maintenance_total counter\n")
		for _, sh := range g.Shards {
			fmt.Fprintf(w, "mnn_shard_maintenance_total{shard=\"%d\",kind=\"drain\"} %d\n", sh.ID, sh.Drains)
			fmt.Fprintf(w, "mnn_shard_maintenance_total{shard=\"%d\",kind=\"repair\"} %d\n", sh.ID, sh.Repairs)
			fmt.Fprintf(w, "mnn_shard_maintenance_total{shard=\"%d\",kind=\"remap\"} %d\n", sh.ID, sh.Remaps)
			fmt.Fprintf(w, "mnn_shard_maintenance_total{shard=\"%d\",kind=\"rejoin\"} %d\n", sh.ID, sh.Rejoins)
		}
	}

	if g.Replicas != nil {
		fmt.Fprintf(w, "# HELP mnn_replica_attached Replica attachment state (1 = serving).\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_attached gauge\n")
		fmt.Fprintf(w, "# HELP mnn_replica_breaker_open_layers Layers with an open routing breaker per replica.\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_breaker_open_layers gauge\n")
		fmt.Fprintf(w, "# HELP mnn_replica_routed_mvms_total Layer MVMs served per replica.\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_routed_mvms_total counter\n")
		fmt.Fprintf(w, "# HELP mnn_replica_failovers_total Flagged MVMs re-executed on a sibling, per flagged replica.\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_failovers_total counter\n")
		fmt.Fprintf(w, "# HELP mnn_replica_detaches_total Maintenance detach cycles per replica.\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_detaches_total counter\n")
		for _, r := range g.Replicas.Replicas {
			attached := 0
			if r.Attached {
				attached = 1
			}
			fmt.Fprintf(w, "mnn_replica_attached{replica=\"%d\"} %d\n", r.ID, attached)
			fmt.Fprintf(w, "mnn_replica_breaker_open_layers{replica=\"%d\"} %d\n", r.ID, len(r.OpenLayers))
			fmt.Fprintf(w, "mnn_replica_routed_mvms_total{replica=\"%d\"} %d\n", r.ID, r.Routed)
			fmt.Fprintf(w, "mnn_replica_failovers_total{replica=\"%d\"} %d\n", r.ID, r.Failovers)
			fmt.Fprintf(w, "mnn_replica_detaches_total{replica=\"%d\"} %d\n", r.ID, r.Detaches)
		}

		fmt.Fprintf(w, "# HELP mnn_replica_votes_total Majority-vote rounds across the replica set.\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_votes_total counter\n")
		fmt.Fprintf(w, "mnn_replica_votes_total %d\n", g.Replicas.Votes)

		fmt.Fprintf(w, "# HELP mnn_replica_vote_disagreements_total Output elements where a voter deviated from the median past tolerance.\n")
		fmt.Fprintf(w, "# TYPE mnn_replica_vote_disagreements_total counter\n")
		fmt.Fprintf(w, "mnn_replica_vote_disagreements_total %d\n", g.Replicas.Disagreements)
	}

	fmt.Fprintf(w, "# HELP mnn_degraded_layers Layers currently served from the software fallback.\n")
	fmt.Fprintf(w, "# TYPE mnn_degraded_layers gauge\n")
	fmt.Fprintf(w, "mnn_degraded_layers %d\n", len(g.DegradedLayers))

	if g.Scrub != nil {
		t := g.Scrub.Totals
		fmt.Fprintf(w, "# HELP mnn_scrub_passes_total Completed patrol passes over individual layers.\n")
		fmt.Fprintf(w, "# TYPE mnn_scrub_passes_total counter\n")
		fmt.Fprintf(w, "mnn_scrub_passes_total %d\n", t.Passes)

		fmt.Fprintf(w, "# HELP mnn_scrub_rows_total Word lines by patrol outcome.\n")
		fmt.Fprintf(w, "# TYPE mnn_scrub_rows_total counter\n")
		fmt.Fprintf(w, "mnn_scrub_rows_total{action=\"patrolled\"} %d\n", t.RowsPatrolled)
		fmt.Fprintf(w, "mnn_scrub_rows_total{action=\"repaired\"} %d\n", t.RowsRepaired)
		fmt.Fprintf(w, "mnn_scrub_rows_total{action=\"spared\"} %d\n", t.RowsSpared)
		fmt.Fprintf(w, "mnn_scrub_rows_total{action=\"uncorrectable\"} %d\n", t.RowsUncorrectable)

		fmt.Fprintf(w, "# HELP mnn_scrub_cells_reprogrammed_total Deviating cells rewritten by patrol repairs.\n")
		fmt.Fprintf(w, "# TYPE mnn_scrub_cells_reprogrammed_total counter\n")
		fmt.Fprintf(w, "mnn_scrub_cells_reprogrammed_total %d\n", t.CellsReprogrammed)

		fmt.Fprintf(w, "# HELP mnn_scrub_layer_age_seconds Time since each layer's last completed patrol pass.\n")
		fmt.Fprintf(w, "# TYPE mnn_scrub_layer_age_seconds gauge\n")
		layers := make([]int, 0, len(g.Scrub.LayerAge))
		for l := range g.Scrub.LayerAge {
			layers = append(layers, l)
		}
		sort.Ints(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "mnn_scrub_layer_age_seconds{layer=\"%d\"} %g\n", l, g.Scrub.LayerAge[l].Seconds())
		}
	}

	if g.Controller != nil {
		c := g.Controller
		fmt.Fprintf(w, "# HELP mnn_controller_level Protection level (0 = configured baseline).\n")
		fmt.Fprintf(w, "# TYPE mnn_controller_level gauge\n")
		fmt.Fprintf(w, "mnn_controller_level %d\n", c.Level)

		fmt.Fprintf(w, "# HELP mnn_controller_scrub_interval_seconds Live patrol cadence chosen by the controller.\n")
		fmt.Fprintf(w, "# TYPE mnn_controller_scrub_interval_seconds gauge\n")
		fmt.Fprintf(w, "mnn_controller_scrub_interval_seconds %g\n", c.ScrubInterval.Seconds())

		if c.VoteThreshold >= 0 {
			fmt.Fprintf(w, "# HELP mnn_controller_vote_threshold Live replica vote trigger chosen by the controller.\n")
			fmt.Fprintf(w, "# TYPE mnn_controller_vote_threshold gauge\n")
			fmt.Fprintf(w, "mnn_controller_vote_threshold %d\n", c.VoteThreshold)
		}

		fmt.Fprintf(w, "# HELP mnn_controller_ticks_total Decision-loop iterations.\n")
		fmt.Fprintf(w, "# TYPE mnn_controller_ticks_total counter\n")
		fmt.Fprintf(w, "mnn_controller_ticks_total %d\n", c.Ticks)

		fmt.Fprintf(w, "# HELP mnn_controller_decisions_total Applied controller actions by name.\n")
		fmt.Fprintf(w, "# TYPE mnn_controller_decisions_total counter\n")
		for _, a := range []string{"tighten", "relax", "repair", "degrade"} {
			fmt.Fprintf(w, "mnn_controller_decisions_total{action=%q} %d\n", a, c.Decisions[a])
		}
	}

	if g.Persist != nil {
		p := g.Persist
		fmt.Fprintf(w, "# HELP mnn_persist_restore_info Boot-time restore outcome (the labeled series is 1).\n")
		fmt.Fprintf(w, "# TYPE mnn_persist_restore_info gauge\n")
		for _, o := range []RestoreOutcome{RestoreFresh, RestoreRestored, RestoreFallback} {
			v := 0
			if p.Outcome == o {
				v = 1
			}
			fmt.Fprintf(w, "mnn_persist_restore_info{outcome=%q} %d\n", string(o), v)
		}

		fmt.Fprintf(w, "# HELP mnn_persist_snapshot_age_seconds Time since the last published snapshot (0 before the first save).\n")
		fmt.Fprintf(w, "# TYPE mnn_persist_snapshot_age_seconds gauge\n")
		fmt.Fprintf(w, "mnn_persist_snapshot_age_seconds %g\n", p.SnapshotAge.Seconds())

		fmt.Fprintf(w, "# HELP mnn_persist_saves_total Snapshot save attempts.\n")
		fmt.Fprintf(w, "# TYPE mnn_persist_saves_total counter\n")
		fmt.Fprintf(w, "mnn_persist_saves_total %d\n", p.Saves)

		fmt.Fprintf(w, "# HELP mnn_persist_save_errors_total Snapshot saves that failed.\n")
		fmt.Fprintf(w, "# TYPE mnn_persist_save_errors_total counter\n")
		fmt.Fprintf(w, "mnn_persist_save_errors_total %d\n", p.SaveErrors)
	}

	if g.Verify != nil {
		// Convergence histogram: bucket le=i counts cells that verified
		// within i pulses; +Inf adds the cells that gave up; sum is total
		// pulses issued.
		fmt.Fprintf(w, "# HELP mnn_verify_pulses Write pulses per cell for closed-loop programming.\n")
		fmt.Fprintf(w, "# TYPE mnn_verify_pulses histogram\n")
		cum := uint64(0)
		for i, n := range g.Verify.Hist {
			cum += n
			fmt.Fprintf(w, "mnn_verify_pulses_bucket{le=\"%d\"} %d\n", i+1, cum)
		}
		fmt.Fprintf(w, "mnn_verify_pulses_bucket{le=\"+Inf\"} %d\n", g.Verify.Cells)
		fmt.Fprintf(w, "mnn_verify_pulses_sum %d\n", g.Verify.Pulses)
		fmt.Fprintf(w, "mnn_verify_pulses_count %d\n", g.Verify.Cells)

		fmt.Fprintf(w, "# HELP mnn_verify_giveups_total Cells that never verified within the pulse budget.\n")
		fmt.Fprintf(w, "# TYPE mnn_verify_giveups_total counter\n")
		fmt.Fprintf(w, "mnn_verify_giveups_total %d\n", g.Verify.GaveUp)
	}
}

// formatFloat renders a bucket bound the way Prometheus expects (no
// exponent for these magnitudes).
func formatFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
