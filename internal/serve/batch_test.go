package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
)

// TestServeBatchSizeInvariance is the serving-layer determinism contract for
// coalescing: a prediction is the same pure function of (engine, seed)
// whether the scheduler served its image alone (MaxBatch=1, the pre-batch
// serial worker) or folded it into a multi-image pass with batchmates.
// Classes, rankings, and the full per-request ECU tallies must all match.
func TestServeBatchSizeInvariance(t *testing.T) {
	eng, _ := testEngine(t, 0.01)
	const n = 24
	inputs := make([]*nn.Tensor, n)
	for i := range inputs {
		inputs[i] = testInput(uint64(i))
	}
	run := func(cfg Config) ([]Prediction, BatchStatus) {
		s, err := NewScheduler(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background())
		preds, err := s.PredictBatch(context.Background(), inputs, 4000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return preds, s.BatchStatus()
	}

	serial, _ := run(Config{Workers: 1, QueueDepth: 2 * n, MaxBatch: 1})
	batched, bst := run(Config{Workers: 1, QueueDepth: 2 * n, MaxBatch: 16,
		CoalesceWait: 2 * time.Millisecond})

	// The contract is only tested if coalescing actually happened.
	if bst.SizeSum <= bst.Batches {
		t.Fatalf("no coalescing occurred: %d images over %d passes", bst.SizeSum, bst.Batches)
	}
	if bst.BatchMVMs == 0 {
		t.Fatal("batched passes recorded no batch MVMs")
	}
	for i := range serial {
		a, b := serial[i], batched[i]
		if a.Seed != b.Seed || a.Class != b.Class {
			t.Fatalf("image %d: serial (seed %d, class %d) != batched (seed %d, class %d)",
				i, a.Seed, a.Class, b.Seed, b.Class)
		}
		if len(a.TopK) != len(b.TopK) {
			t.Fatalf("image %d: top-k lengths differ: %v vs %v", i, a.TopK, b.TopK)
		}
		for k := range a.TopK {
			if a.TopK[k] != b.TopK[k] {
				t.Fatalf("image %d: rankings differ: %v vs %v", i, a.TopK, b.TopK)
			}
		}
		if a.Stats != b.Stats {
			t.Fatalf("image %d: per-request stats differ across batch sizes:\nserial  %+v\nbatched %+v",
				i, a.Stats, b.Stats)
		}
	}
}

// TestFairShare pins the coalescing cap: an even split of the pending work
// across the pool, clamped to [1, MaxBatch]. One worker takes the whole
// queue — the greedy drain.
func TestFairShare(t *testing.T) {
	for _, c := range []struct{ pending, workers, maxBatch, want int }{
		// workers=1 is the greedy drain: min(pending, maxBatch).
		{1, 1, 16, 1},
		{5, 1, 16, 5},
		{16, 1, 16, 16},
		{40, 1, 16, 16},
		// The ceil split.
		{16, 2, 16, 8},
		{15, 2, 16, 8},
		{17, 2, 16, 9},
		{16, 3, 16, 6},
		{7, 4, 16, 2},
		// The MaxBatch clamp.
		{64, 2, 16, 16},
		{16, 2, 4, 4},
		{16, 2, 1, 1},
		// Fewer jobs than workers: each worker takes only the one it holds.
		{1, 2, 16, 1},
		{3, 4, 16, 1},
	} {
		if got := fairShare(c.pending, c.workers, c.maxBatch); got != c.want {
			t.Errorf("fairShare(pending=%d, workers=%d, maxBatch=%d) = %d, want %d",
				c.pending, c.workers, c.maxBatch, got, c.want)
		}
	}
}

// TestServeBatchFairShare: a 16-request burst queued while both workers of
// a two-worker pool are busy must be split between them — no pass larger
// than ceil(16/2), both workers running a multi-image pass — instead of the
// first free worker draining it all. The split is a scheduling decision
// only: every answer equals the serial (Workers=1, MaxBatch=1) answer for
// the same seed.
func TestServeBatchFairShare(t *testing.T) {
	eng, _ := testEngine(t, 0.01)
	const n, workers = 16, 2
	const seedBase = 11000
	inputs := make([]*nn.Tensor, n)
	for i := range inputs {
		inputs[i] = testInput(uint64(i))
	}

	cfg := Config{Workers: workers, QueueDepth: 2 * n, MaxBatch: n, QueueTimeout: time.Minute}
	// Each worker parks on its first dequeue, so the burst queues behind
	// two busy workers.
	var dequeues atomic.Int32
	parked := make(chan struct{}, workers)
	gate := make(chan struct{})
	cfg.dequeueHook = func() {
		if dequeues.Add(1) <= workers {
			parked <- struct{}{}
			<-gate
		}
	}
	// The first multi-image pass waits in the batch hook until a second one
	// arrives. A worker cannot reach the hook twice while parked in it, so
	// the two passes are one per worker, and neither worker can take a
	// second share before the other has coalesced its first.
	var (
		mu       sync.Mutex
		passes   []int
		timedOut atomic.Bool
	)
	barrier := make(chan struct{})
	cfg.batchHook = func(jobs []*job) {
		mu.Lock()
		passes = append(passes, len(jobs))
		k := len(passes)
		mu.Unlock()
		switch k {
		case 1:
			select {
			case <-barrier:
			case <-time.After(10 * time.Second):
				timedOut.Store(true)
			}
		case 2:
			close(barrier)
		}
	}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	jobs := make([]*job, n)
	for i := range jobs {
		if jobs[i], err = s.submit(context.Background(), inputs[i], seedBase+uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		<-parked
	}
	close(gate)
	got := make([]Prediction, n)
	for i, j := range jobs {
		r := <-j.resp
		if r.err != nil {
			t.Fatalf("job %d failed: %v", i, r.err)
		}
		got[i] = r.pred
	}

	if timedOut.Load() || len(passes) < workers {
		t.Fatalf("want a multi-image pass on each of %d workers, got passes %v", workers, passes)
	}
	share := (n + workers - 1) / workers
	for _, size := range passes {
		if size > share {
			t.Fatalf("a pass took %d images, more than the fair share %d; passes %v", size, share, passes)
		}
	}
	if bst := s.BatchStatus(); bst.SizeSum != n {
		t.Fatalf("coalescing telemetry counted %d images, want %d", bst.SizeSum, n)
	}

	serial, err := NewScheduler(eng, Config{Workers: 1, QueueDepth: 2 * n, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close(context.Background())
	want, err := serial.PredictBatch(context.Background(), inputs, seedBase, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Seed != b.Seed || a.Class != b.Class || a.Stats != b.Stats || len(a.TopK) != len(b.TopK) {
			t.Fatalf("image %d: serial %+v != fair-share %+v", i, a, b)
		}
		for k := range a.TopK {
			if a.TopK[k] != b.TopK[k] {
				t.Fatalf("image %d: rankings differ: %v vs %v", i, a.TopK, b.TopK)
			}
		}
	}
}

// TestServeBatchFaultMidBatch: a persistent fault surfacing inside a
// coalesced pass must climb the same retry → remap ladder a serial request
// would, without failing batchmates — zero errors across the whole batch,
// recovery counters advanced, and post-repair traffic clean.
func TestServeBatchFaultMidBatch(t *testing.T) {
	eng := quietEngine(t)
	s, err := NewScheduler(eng, Config{Workers: 1, QueueDepth: 64, MaxBatch: 16,
		CoalesceWait: 2 * time.Millisecond, Recovery: recoveryConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	const n = 16
	inputs := make([]*nn.Tensor, n)
	for i := range inputs {
		inputs[i] = testInput(uint64(i))
	}
	if _, err := s.PredictBatch(context.Background(), inputs, 6000, 0); err != nil {
		t.Fatalf("healthy warmup batch failed: %v", err)
	}

	const layer = 2
	wreckLayer(t, eng, layer)
	preds, err := s.PredictBatch(context.Background(), inputs, 7000, 0)
	if err != nil {
		t.Fatalf("batch over wrecked layer failed: %v", err)
	}
	for i, p := range preds {
		if len(p.TopK) == 0 {
			t.Fatalf("image %d answered empty", i)
		}
		// A clean rung-1 retry legitimately answers under the retry stream
		// (request seed + attempt*retrySeedStride); the request seed must
		// survive in the low bits either way.
		if p.Seed%retrySeedStride != 7000+uint64(i) {
			t.Fatalf("image %d answered under seed %d", i, p.Seed)
		}
	}
	if got := s.RecoveryCounters(); got.Remaps == 0 {
		t.Fatalf("wrecked layer never remapped: %+v", got)
	}
	if eng.RemapCount(layer) == 0 {
		t.Fatal("engine shows no remap on the wrecked layer")
	}

	// Fresh hardware serves the next batch clean.
	post, err := s.PredictBatch(context.Background(), inputs, 8000, 0)
	if err != nil {
		t.Fatalf("post-repair batch failed: %v", err)
	}
	for i, p := range post {
		if p.Stats.Detected != 0 || p.LadderRetries != 0 {
			t.Fatalf("post-repair image %d not clean: %+v", i, p)
		}
	}
}

// TestBatchDropsCanceledBatchmates pins the coalescing window's blind spot:
// a client can vanish after the dequeue-time cancellation filter but before
// the multi-image pass runs. The canceled job must be answered with its
// context error and dropped from the pass — its MVMs never spent, never
// counted in mnn_batch_mvms_total — while its batchmates are served
// normally.
func TestBatchDropsCanceledBatchmates(t *testing.T) {
	eng, _ := testEngine(t, 0)
	// run coalesces exactly three jobs into one pass; when cancelOne is set,
	// the middle job's context is canceled inside the batch hook — after the
	// worker's dequeue-time filter, before the batched evaluation.
	run := func(cancelOne bool) (results [3]jobResult, bst BatchStatus, canceled uint64) {
		cfg := Config{Workers: 1, QueueDepth: 16, MaxBatch: 8, QueueTimeout: time.Minute}
		gate := make(chan struct{})
		first := true // dequeueHook runs only on the single worker goroutine
		cfg.dequeueHook = func() {
			if first {
				first = false
				<-gate
			}
		}
		var cancelMid context.CancelFunc
		cfg.batchHook = func(jobs []*job) {
			if cancelOne {
				cancelMid()
			}
		}
		s, err := NewScheduler(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background())

		midCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelMid = cancel
		jobs := make([]*job, 3)
		for i, ctx := range []context.Context{context.Background(), midCtx, context.Background()} {
			j, err := s.submit(ctx, testInput(uint64(i+1)), uint64(9000+i), 1)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		// All three are queued; release the worker to coalesce them into one
		// pass.
		close(gate)
		for i, j := range jobs {
			results[i] = <-j.resp
		}
		return results, s.BatchStatus(), s.Canceled()
	}

	clean, cleanBatch, cleanCanceled := run(false)
	for i, r := range clean {
		if r.err != nil {
			t.Fatalf("control job %d failed: %v", i, r.err)
		}
	}
	if cleanCanceled != 0 || cleanBatch.BatchMVMs == 0 {
		t.Fatalf("control pass malformed: canceled %d, batch MVMs %d", cleanCanceled, cleanBatch.BatchMVMs)
	}

	got, gotBatch, gotCanceled := run(true)
	if got[1].err == nil || !errors.Is(got[1].err, context.Canceled) {
		t.Fatalf("canceled batchmate answered %v, want context.Canceled", got[1].err)
	}
	if got[0].err != nil || got[2].err != nil {
		t.Fatalf("surviving batchmates failed: %v, %v", got[0].err, got[2].err)
	}
	if gotCanceled != 1 {
		t.Fatalf("cancellation tally = %d, want 1", gotCanceled)
	}
	// The dropped job's lane never ran: the batched-MVM counter carries two
	// images' layers, not three — 2/3 of the control pass exactly.
	if gotBatch.BatchMVMs == 0 || gotBatch.BatchMVMs*3 != cleanBatch.BatchMVMs*2 {
		t.Fatalf("canceled batchmate inflated mnn_batch_mvms_total: got %d with a drop, %d without",
			gotBatch.BatchMVMs, cleanBatch.BatchMVMs)
	}
	// The survivors' answers match the control run bit for bit.
	for _, i := range []int{0, 2} {
		if got[i].pred.Class != clean[i].pred.Class || got[i].pred.Stats != clean[i].pred.Stats {
			t.Fatalf("survivor %d diverged from control:\n with drop %+v\n  control %+v",
				i, got[i].pred, clean[i].pred)
		}
	}
}

// TestServeAnswersReplayOnEngineSession is the replay contract an operator
// relies on: with the ladder armed, two workers and coalescing on, every
// answer of a bare pool equals a fresh engine session reseeded to the
// answer's stream — class and ECU tallies alike.
func TestServeAnswersReplayOnEngineSession(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, err := NewScheduler(eng, Config{Workers: 2, MaxBatch: 8, QueueDepth: 64,
		QueueTimeout: time.Minute, Recovery: RecoveryConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	inputs := make([]*nn.Tensor, 48)
	for i := range inputs {
		inputs[i] = testInput(uint64(i))
	}
	preds, err := s.PredictBatch(context.Background(), inputs, 9000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc := s.RecoveryCounters(); rc.Remaps+rc.Degrades > 0 {
		t.Fatalf("the ladder changed the hardware under earlier answers: %+v", rc)
	}
	sess := eng.NewSession(0)
	for i, p := range preds {
		sess.Reseed(p.Seed)
		sess.DrainStats()
		class := sess.Forward(inputs[i]).TopK(1)[0]
		st := sess.DrainStats()
		st.BatchMVMs = 0
		if class != p.Class || st != p.Stats {
			t.Fatalf("image %d seed %d: served class %d %+v, replay class %d %+v",
				i, p.Seed, p.Class, p.Stats, class, st)
		}
	}
}
