package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Admission and lifecycle errors. The HTTP layer maps ErrQueueFull to 429
// and ErrQueueTimeout/ErrClosed to 503.
var (
	ErrQueueFull    = errors.New("serve: admission queue full")
	ErrQueueTimeout = errors.New("serve: request timed out waiting for a worker")
	ErrClosed       = errors.New("serve: scheduler closed")
)

// Prediction is the outcome of one image inference, including the ECU
// activity it alone caused.
type Prediction struct {
	// Class is the argmax class under the noisy hardware.
	Class int
	// TopK are the highest-scoring classes in descending order.
	TopK []int
	// Seed is the noise-stream id the session was reseeded with; replaying
	// the same seed against the same engine reproduces this result exactly.
	Seed uint64
	// Stats are the ECU and row-error tallies of this request only.
	Stats accel.Stats
	// QueueWait is how long the request sat in the admission queue.
	QueueWait time.Duration
	// Infer is the worker-side evaluation time.
	Infer time.Duration
	// LadderRetries is how many recovery re-evaluations this request
	// consumed (rung 1 of the ladder).
	LadderRetries int
	// Remapped lists layers re-programmed onto spare arrays while
	// recovering this request (rung 2).
	Remapped []int
	// Degraded lists the layers this answer was served from the software
	// fixed-point fallback instead of crossbars — the accuracy-loss
	// warning of rung 3.
	Degraded []int
}

type jobResult struct {
	pred Prediction
	err  error
}

// job is one queued image. resp is buffered so a worker never blocks on a
// caller that gave up.
type job struct {
	ctx      context.Context
	input    *nn.Tensor
	seed     uint64
	topK     int
	enqueued time.Time
	resp     chan jobResult
}

// autoSeedBase offsets scheduler-assigned stream ids away from the low
// range clients typically use for explicit, reproducible seeds.
const autoSeedBase = uint64(1) << 32

// session is a worker's evaluation stream: accel.Session on a bare pool,
// shard.Session otherwise. Every pass is a batch — a lone job is a batch of
// one — with per-image noise lanes and per-image stat drains.
type session interface {
	ForwardBatch(xs []*nn.Tensor, streams []uint64) ([]*nn.Tensor, []error)
	DrainBatchStats(i int) accel.Stats
	DrainBatchLayerStatsInto(i int, out map[int]accel.Stats)
}

// workerState is one worker's owned session.
type workerState struct {
	sess session
	// perLayer is the worker's reusable per-request layer-stats map; the
	// monitor's Observe only reads it, so one map per worker suffices.
	perLayer map[int]accel.Stats
	// pass scratch, reused across passes: the pass's jobs, inputs and
	// streams, and a copy of its results (a ladder re-evaluation reuses the
	// session's result slices while later batchmates still need theirs).
	jobs    []*job
	xs      []*nn.Tensor
	streams []uint64
	outs    []*nn.Tensor
	errs    []error
	// one and oneSeed carry a job evaluated alone.
	one     [1]*nn.Tensor
	oneSeed [1]uint64
	// timer is the reusable CoalesceWait timer (allocating one per pass
	// would put the scheduler loop back on the allocator).
	timer *time.Timer
}

// Scheduler owns a fixed pool of session workers fed by a bounded admission
// queue, in front of a shard pool: every topology — bare engine, replica
// set, sharded pool — is N >= 1 shards of R >= 1 copies, so state, ladder,
// scrub targets, controller actuators and persistence are written once.
// Each worker reseeds its session per request id, so results are
// independent of placement and arrival order. With recovery enabled,
// workers also feed per-layer ECU outcomes to a health monitor and climb
// the per-layer ladder when a breaker trips.
type Scheduler struct {
	cfg      Config
	eng      *accel.Engine
	queue    chan *job
	wg       sync.WaitGroup
	mu       sync.RWMutex // guards closed vs. in-flight queue sends
	closed   bool
	autoSeed atomic.Uint64

	rec   *recoveryState
	escMu sync.Mutex // serializes ladder escalations across workers

	// pool fronts the engine with max(1, Shards) shards of Replicas.N
	// copies; each shard's first copy is a view of the engine's arrays.
	pool *shard.Pool

	// The maintenance duties, nil when disabled: the patrol scrubber, the
	// closed-loop protection controller, and the crash-consistency
	// snapshotter. One goroutine (maintain) runs all three unless Manual.
	pat *patroller
	ctl *controller
	per *persister
	// stopMaint ends the maintenance goroutine, and maintDone is closed when
	// it has exited (both nil when none runs).
	stopMaint context.CancelFunc
	maintDone chan struct{}

	// camp is the fault-campaign runner registered via SetCampaign, so
	// snapshots capture its cursor (nil when no campaign drives the pool).
	campMu sync.Mutex
	camp   *fault.Runner

	served   atomic.Uint64 // requests answered (success or error)
	canceled atomic.Uint64 // requests whose client vanished while queued
	inflight atomic.Int64  // dequeued but not yet answered
	ecc      accel.SharedStats
	bat      batchTelemetry
}

// NewScheduler starts the worker pool over a mapped engine.
func NewScheduler(eng *accel.Engine, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rec, err := newRecoveryState(cfg.Recovery)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		cfg.Recovery = rec.cfg
	}
	pool, err := shard.NewPool(eng, shard.Config{N: max(1, cfg.Shards), Replicas: cfg.Replicas})
	if err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg, eng: eng, queue: make(chan *job, cfg.QueueDepth), rec: rec, pool: pool}
	// Assemble every subsystem before starting any goroutine, so the
	// boot-time restore owns the whole pool and either applies a snapshot
	// completely or refuses it completely — traffic and maintenance never
	// see a half-restored engine.
	if cfg.Scrub.Enabled {
		s.pat = newPatroller(s, cfg.Scrub)
	}
	if cfg.Controller.Enabled {
		s.ctl = newController(s, cfg.Controller)
	}
	if cfg.Persist.Dir != "" {
		s.per = newPersister(s, cfg.Persist)
		if err := s.per.bootRestore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(uint64(i))
	}
	if !cfg.Manual && (s.pat != nil || s.ctl != nil || s.per != nil) {
		ctx, stop := context.WithCancel(context.Background())
		s.stopMaint, s.maintDone = stop, make(chan struct{})
		go s.maintain(ctx)
	}
	return s, nil
}

// maintain is the pool's one maintenance goroutine. Each enabled duty runs
// on its own cadence, one at a time: a patrol pass per live patrol interval
// (re-read after every pass, so a controller retune applies at the next
// wait, and only in idle slots when no copy can be detached), a controller
// tick per Controller.Interval, and a snapshot once Persist.Every requests
// have been served since the last one, checked every persistPoll. The
// timers are armed here, after the boot-time restore, so a restored
// protection level's cadence applies from the first wait.
func (s *Scheduler) maintain(ctx context.Context) {
	defer close(s.maintDone)
	var patrol, decide, poll <-chan time.Time // a nil channel never fires
	var patrolTimer *time.Timer
	if s.pat != nil {
		patrolTimer = time.NewTimer(s.pat.interval())
		defer patrolTimer.Stop()
		patrol = patrolTimer.C
	}
	if s.ctl != nil {
		t := time.NewTicker(s.ctl.cfg.Interval)
		defer t.Stop()
		decide = t.C
	}
	if s.per != nil {
		t := time.NewTicker(s.cfg.persistPoll)
		defer t.Stop()
		poll = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-patrol:
			if s.pat.detachable || (s.inflight.Load() == 0 && s.QueueLen() == 0) {
				s.pat.patrolOnce()
			}
			patrolTimer.Reset(s.pat.interval())
		case <-decide:
			s.ctl.tick()
		case <-poll:
			s.per.snapshotIfDue()
		}
	}
}

// ApplyEnv retunes every programmed copy to an environment-adjusted device
// model — the scenario engine's actuator. All copies share the environment.
func (s *Scheduler) ApplyEnv(dev noise.DeviceParams) error {
	return s.pool.Retune(dev)
}

// Engine returns the mapped engine the pool evaluates against (the primary
// replica when replication is on).
func (s *Scheduler) Engine() *accel.Engine { return s.eng }

// ReplicaSet returns the replica set of an unsharded replicated pool, nil
// when the pool is sharded (see ShardPool) or serves a single copy.
func (s *Scheduler) ReplicaSet() *replica.Set {
	if s.cfg.Shards > 0 || s.cfg.Replicas.N <= 1 {
		return nil
	}
	return s.pool.Shard(0).Set()
}

// ShardPool returns the shard pool fronting the engine, nil when the
// scheduler was not configured with Shards (the pool is then one shard that
// the /admin/shards verbs do not address).
func (s *Scheduler) ShardPool() *shard.Pool {
	if s.cfg.Shards == 0 {
		return nil
	}
	return s.pool
}

// ReplicaSets returns every shard's replica set, in shard order.
func (s *Scheduler) ReplicaSets() []*replica.Set {
	sets := make([]*replica.Set, s.pool.Size())
	for i := range sets {
		sets[i] = s.pool.Shard(i).Set()
	}
	return sets
}

// bare reports an unsharded, unreplicated pool: one shard of one copy,
// evaluated on the engine's own session.
func (s *Scheduler) bare() bool { return s.cfg.Shards == 0 && s.cfg.Replicas.N <= 1 }

// Canceled returns how many admitted requests were dropped because their
// client disconnected while they sat in the queue.
func (s *Scheduler) Canceled() uint64 { return s.canceled.Load() }

// newSession builds one worker's evaluation stream — the only place the
// data path looks at the topology. A bare pool evaluates on the engine's
// own session, which carries one noise stream across layers; the shard
// pool session's routers key each layer's stream apart
// (stream ^ (layer+1)<<40) so routing never moves a draw. The two give different logits, and the
// goldens and the replay checks pin the engine stream.
func (s *Scheduler) newSession(id uint64) session {
	if s.bare() {
		return s.eng.NewSession(id)
	}
	return s.pool.NewSession(id)
}

// Workers returns the resolved session-pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// QueueLen returns the current admission-queue depth (metrics gauge).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// QueueDepth returns the admission-queue capacity.
func (s *Scheduler) QueueDepth() int { return s.cfg.QueueDepth }

// Served returns how many requests have been answered so far — the logical
// wear clock fault campaigns advance on.
func (s *Scheduler) Served() uint64 { return s.served.Load() }

// Predict runs one image through the pool: admit (ErrQueueFull on
// backpressure), wait for a worker, evaluate. seed selects the noise
// stream; 0 asks the scheduler to assign a fresh one. topK 0 uses the
// configured default.
func (s *Scheduler) Predict(ctx context.Context, input *nn.Tensor, seed uint64, topK int) (Prediction, error) {
	j, err := s.submit(ctx, input, seed, topK)
	if err != nil {
		return Prediction{}, err
	}
	select {
	case r := <-j.resp:
		return r.pred, r.err
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// PredictBatch fans a batch across the pool and gathers results in input
// order. Entry i uses noise stream baseSeed+i (baseSeed 0 = assign). If any
// entry is refused admission the whole batch fails with that error, after
// the already-admitted entries finish.
func (s *Scheduler) PredictBatch(ctx context.Context, inputs []*nn.Tensor, baseSeed uint64, topK int) ([]Prediction, error) {
	jobs := make([]*job, 0, len(inputs))
	var admitErr error
	for i, in := range inputs {
		var seed uint64
		if baseSeed != 0 {
			seed = baseSeed + uint64(i)
		}
		j, err := s.submit(ctx, in, seed, topK)
		if err != nil {
			admitErr = err
			break
		}
		jobs = append(jobs, j)
	}
	out := make([]Prediction, 0, len(jobs))
	firstErr := admitErr
	for _, j := range jobs {
		select {
		case r := <-j.resp:
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			out = append(out, r.pred)
		case <-ctx.Done():
			// Remaining responses land in buffered channels and are
			// garbage collected; the workers are not blocked.
			if firstErr == nil {
				firstErr = ctx.Err()
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// submit admits one job or reports backpressure without blocking.
func (s *Scheduler) submit(ctx context.Context, input *nn.Tensor, seed uint64, topK int) (*job, error) {
	if seed == 0 {
		seed = autoSeedBase + s.autoSeed.Add(1)
	}
	j := &job{ctx: ctx, input: input, seed: seed, topK: topK,
		enqueued: time.Now(), resp: make(chan jobResult, 1)}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case s.queue <- j:
		return j, nil
	default:
		return nil, ErrQueueFull
	}
}

// worker is one evaluation stream: it owns a session and serves queued jobs
// until the queue is closed and drained. It coalesces its fair share of the
// pending work (plus an optional CoalesceWait window) into one multi-image
// layer-MVM pass, up to MaxBatch images.
func (s *Scheduler) worker(id uint64) {
	defer s.wg.Done()
	w := &workerState{sess: s.newSession(id), perLayer: make(map[int]accel.Stats)}
	maxB := max(1, s.cfg.MaxBatch)
	batch := make([]*job, 0, maxB)
	live := make([]*job, 0, maxB)
	for j := range s.queue {
		batch = append(batch[:0], j)
		s.inflight.Add(1)
		if s.cfg.dequeueHook != nil {
			s.cfg.dequeueHook()
		}
		coalesceStart := time.Now()
		s.coalesce(w, &batch, maxB)
		s.bat.observe(len(batch), time.Since(coalesceStart))

		// Per-job admission filtering: a vanished client or an overaged job
		// is answered without spending crossbar reads, exactly as before.
		start := time.Now()
		live = live[:0]
		for _, jb := range batch {
			if jb.ctx != nil && jb.ctx.Err() != nil {
				// The client vanished while the job was queued.
				s.cancel(jb)
				continue
			}
			if start.Sub(jb.enqueued) > s.cfg.QueueTimeout {
				s.answer(jb, jobResult{err: ErrQueueTimeout})
				continue
			}
			live = append(live, jb)
		}
		s.serve(w, live, start)
	}
}

// fairShare is how many of the pending jobs — those queued plus those
// dequeued and not yet answered anywhere in the pool, the worker's own
// included — one worker takes into its next pass: an even split across the
// workers, at least one, at most maxBatch. With one worker that is
// everything pending, the greedy drain.
func fairShare(pending, workers, maxBatch int) int {
	return max(1, min((pending+workers-1)/workers, maxBatch))
}

// coalesce drains the worker's fair share of the pending jobs into the
// batch and leaves the rest queued for the other workers. Counting the jobs
// other workers are still serving keeps a worker that dequeues behind a
// busy one from halving the remainder again (8, then 4 + 2 + 1 + 1): it
// takes what balances the two. Only when the queue runs dry first does it
// — with CoalesceWait set — hold the batch open for late batchmates, up to
// the full maxB. The share is re-read per job, so a burst still arriving
// while the worker drains grows it. The dequeue hook fires once per job,
// like the serial loop's.
func (s *Scheduler) coalesce(w *workerState, batch *[]*job, maxB int) {
	for len(*batch) < maxB {
		q := len(s.queue)
		if q > 0 && len(*batch) >= fairShare(q+int(s.inflight.Load()), s.cfg.Workers, maxB) {
			return
		}
		select {
		case jb, ok := <-s.queue:
			if !ok {
				return
			}
			*batch = append(*batch, jb)
			s.inflight.Add(1)
			if s.cfg.dequeueHook != nil {
				s.cfg.dequeueHook()
			}
		default:
			if s.cfg.CoalesceWait <= 0 {
				return
			}
			s.coalesceWait(w, batch, maxB)
			return
		}
	}
}

// coalesceWait is the blocking tail of coalesce: wait up to CoalesceWait
// for more jobs, leaving early when the batch fills. The worker's timer is
// reused across passes.
func (s *Scheduler) coalesceWait(w *workerState, batch *[]*job, maxB int) {
	if w.timer == nil {
		w.timer = time.NewTimer(s.cfg.CoalesceWait)
	} else {
		w.timer.Reset(s.cfg.CoalesceWait)
	}
	defer func() {
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
	}()
	for len(*batch) < maxB {
		select {
		case jb, ok := <-s.queue:
			if !ok {
				return
			}
			*batch = append(*batch, jb)
			s.inflight.Add(1)
			if s.cfg.dequeueHook != nil {
				s.cfg.dequeueHook()
			}
		case <-w.timer.C:
			return
		}
	}
}

// serve evaluates a pass of 1..MaxBatch jobs and answers them. Per-image
// guarantees survive coalescing: each image keeps its own noise stream and
// per-lane stats, so its answer is the one it gets alone; a failed image
// re-evaluates alone through the same path without disturbing batchmates;
// and a breaker trip climbs the retry → remap → degrade ladder for the
// image that tripped it.
func (s *Scheduler) serve(w *workerState, jobs []*job, start time.Time) {
	if s.cfg.batchHook != nil {
		s.cfg.batchHook(jobs)
	}
	w.jobs, w.xs, w.streams = w.jobs[:0], w.xs[:0], w.streams[:0]
	for _, j := range jobs {
		// A client can vanish between the dequeue-time filter and here — a
		// coalesce wait, or batchmates' ladder work on this worker's previous
		// pass. Dropping the job now keeps the pass from burning a lane on an
		// answer nobody reads, and keeps its MVMs out of the batch telemetry.
		if j.ctx != nil && j.ctx.Err() != nil {
			s.cancel(j)
			continue
		}
		w.jobs = append(w.jobs, j)
		w.xs = append(w.xs, j.input)
		w.streams = append(w.streams, j.seed)
	}
	outs, errs := s.forward(w, w.xs, w.streams)
	w.outs = append(w.outs[:0], outs...)
	w.errs = append(w.errs[:0], errs...)
	for i, j := range w.jobs {
		pred, err := s.predict(w, i, j, j.seed, w.outs[i], w.errs[i])
		if err != nil && len(w.jobs) > 1 {
			pred, err = s.evaluate(w, j, j.seed)
		}
		if err == nil {
			pred, err = s.ladder(w, j, pred)
		}
		if err == nil {
			pred.QueueWait = start.Sub(j.enqueued)
			pred.Infer = time.Since(start)
			s.ecc.Add(pred.Stats)
			// BatchMVMs marks which kernel served the image — pool
			// telemetry, not part of the answer. Stripping it keeps the
			// per-request Stats a pure function of (engine, seed),
			// identical whether the image was coalesced or served alone.
			pred.Stats.BatchMVMs = 0
		}
		s.answer(j, jobResult{pred: pred, err: err})
	}
}

// forward runs one pass on the worker's session, shielding the pool from a
// coordinator-side panic: when the pass itself blows up, every image is
// reported failed.
func (s *Scheduler) forward(w *workerState, xs []*nn.Tensor, streams []uint64) (outs []*nn.Tensor, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			outs, errs = make([]*nn.Tensor, len(xs)), make([]error, len(xs))
			for i := range errs {
				errs[i] = fmt.Errorf("pass failed: %v", r)
			}
		}
	}()
	return w.sess.ForwardBatch(xs, streams)
}

// evaluate runs job j alone under seed: a failed batchmate's second try,
// and the ladder's re-evaluations.
func (s *Scheduler) evaluate(w *workerState, j *job, seed uint64) (Prediction, error) {
	w.one[0], w.oneSeed[0] = j.input, seed
	outs, errs := s.forward(w, w.one[:], w.oneSeed[:])
	return s.predict(w, 0, j, seed, outs[0], errs[0])
}

// predict turns lane i of the last pass, evaluated under seed, into job
// j's prediction and drains the lane's stats, per layer into w.perLayer.
// A failed lane's partial stats are discarded.
func (s *Scheduler) predict(w *workerState, i int, j *job, seed uint64, out *nn.Tensor, err error) (Prediction, error) {
	if err != nil {
		w.sess.DrainBatchStats(i)
		return Prediction{}, fmt.Errorf("serve: inference failed: %w", err)
	}
	k := j.topK
	if k <= 0 {
		k = s.cfg.TopK
	}
	topk := out.TopK(k)
	w.sess.DrainBatchLayerStatsInto(i, w.perLayer)
	return Prediction{Class: topk[0], TopK: topk, Seed: seed, Stats: w.sess.DrainBatchStats(i)}, nil
}

// ladder feeds the health monitor with the request's per-layer outcomes
// (w.perLayer) and climbs the ladder if they tripped a breaker. It then
// polls the per-replica breakers — the router keeps answers clean by
// steering around a sick replica, which also keeps the damage below the
// request-level trip rate, so degraded redundancy is not visible in this
// request's stats — and flags an answer served in part by software.
func (s *Scheduler) ladder(w *workerState, j *job, pred Prediction) (Prediction, error) {
	if s.rec != nil {
		if open := s.rec.mon.Observe(w.perLayer); len(open) > 0 {
			var err error
			if pred, err = s.recover(w, j, open); err != nil {
				return pred, err
			}
		}
	}
	s.repairOpenCopies()
	if pred.Stats.SoftMVMs > 0 {
		pred.Degraded = s.eng.DegradedLayers()
	}
	return pred, nil
}

// answer updates the drain accounting and then delivers one result. The
// counters move first, so a caller that returns from Predict observes its
// request in Served and in every snapshot built after it: served is the
// wear clock a restore checks. resp is buffered, so the send never blocks.
func (s *Scheduler) answer(j *job, r jobResult) {
	s.served.Add(1)
	s.inflight.Add(-1)
	j.resp <- r
}

// cancel drops a job whose client vanished before it was served: no
// session slot is spent on it and it does not count as served, only the
// cancellation tally moves, again before the reply.
func (s *Scheduler) cancel(j *job) {
	s.canceled.Add(1)
	s.inflight.Add(-1)
	j.resp <- jobResult{err: j.ctx.Err()}
}

// DrainSummary reports what a Close drained — and what it had to abandon
// when its deadline fired first.
type DrainSummary struct {
	// Served is the lifetime count of answered requests.
	Served uint64
	// Abandoned is how many admitted requests were still queued or in
	// flight when the drain deadline expired (0 on a clean drain).
	Abandoned int
	// Canceled is how many admitted requests were dropped unserved because
	// their client disconnected while they waited in the queue.
	Canceled uint64
	// ECC is the cumulative ECU activity of every successfully answered
	// request.
	ECC accel.Stats
}

// Close stops admission, drains the queue (every admitted request is still
// answered), and waits for the workers. When ctx expires mid-drain it
// returns ctx's error together with a partial summary counting the
// requests left behind, so operators still see what the pool did.
func (s *Scheduler) Close(ctx context.Context) (DrainSummary, error) {
	// Halt maintenance first: a patrol pass holds a layer write lock, and
	// draining workers must not compete with background repairs on the way
	// out.
	if s.stopMaint != nil {
		s.stopMaint()
		<-s.maintDone
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Drain finished: flush a final snapshot so a restart resumes from
		// the last answered request, not the last periodic checkpoint.
		// Failure is recorded in PersistStatus, not returned — the drain
		// itself succeeded.
		if s.per != nil {
			_ = s.per.snapshotOnce()
		}
		return DrainSummary{
			Served:   s.served.Load(),
			Canceled: s.canceled.Load(),
			ECC:      s.ecc.Snapshot(),
		}, nil
	case <-ctx.Done():
		// Deadline expired mid-drain: still flush — workers may be live, but
		// every subsystem snapshot is taken under its own lock, so the file
		// is crash-consistent just like a periodic checkpoint.
		if s.per != nil {
			_ = s.per.snapshotOnce()
		}
		abandoned := s.QueueLen() + int(s.inflight.Load())
		return DrainSummary{
			Served:    s.served.Load(),
			Abandoned: abandoned,
			Canceled:  s.canceled.Load(),
			ECC:       s.ecc.Snapshot(),
		}, ctx.Err()
	}
}
