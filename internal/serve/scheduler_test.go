package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/nn"
)

// testEngine maps a tiny dense network (untrained weights are fine: the
// scheduler's contract is about scheduling, not accuracy). failureRate
// injects stuck cells for the telemetry tests.
func testEngine(t testing.TB, failureRate float64) (*accel.Engine, *nn.Network) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	net := &nn.Network{Name: "tiny", InShape: []int{16},
		Layers: []nn.Layer{nn.NewDense(16, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	cfg.Device.FailureRate = failureRate
	eng, err := accel.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func testInput(seed uint64) *nn.Tensor {
	rng := rand.New(rand.NewPCG(seed, 9))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	return nn.FromSlice(x, 16)
}

func TestPredictBasic(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, err := NewScheduler(eng, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	p, err := s.Predict(context.Background(), testInput(1), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.TopK) != 2 || p.TopK[0] != p.Class {
		t.Fatalf("prediction malformed: %+v", p)
	}
	if p.Stats.RowReads == 0 {
		t.Fatal("per-request stats empty")
	}
}

// TestPredictPlacementIndependent: the same seed must give the same class
// and the same ECU tallies regardless of pool size or traffic interleaving.
func TestPredictPlacementIndependent(t *testing.T) {
	eng, _ := testEngine(t, 0.01)
	run := func(workers int) []Prediction {
		s, err := NewScheduler(eng, Config{Workers: workers, QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background())
		inputs := make([]*nn.Tensor, 24)
		for i := range inputs {
			inputs[i] = testInput(uint64(i))
		}
		preds, err := s.PredictBatch(context.Background(), inputs, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	one, eight := run(1), run(8)
	for i := range one {
		if one[i].Class != eight[i].Class || one[i].Stats != eight[i].Stats {
			t.Fatalf("image %d differs across pool sizes: %+v vs %+v", i, one[i], eight[i])
		}
	}
}

// TestAutoSeedsAreFresh: unseeded requests get distinct noise streams.
func TestAutoSeedsAreFresh(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, err := NewScheduler(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	a, err := s.Predict(context.Background(), testInput(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Predict(context.Background(), testInput(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed == b.Seed {
		t.Fatalf("auto seeds collided: %d", a.Seed)
	}
}

// blockingScheduler builds a 1-worker scheduler whose worker parks on gate
// after signalling entered, so tests can fill the queue deterministically.
func blockingScheduler(t *testing.T, eng *accel.Engine, depth int, timeout time.Duration) (*Scheduler, chan struct{}, chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: depth, QueueTimeout: timeout}
	cfg.dequeueHook = func() {
		entered <- struct{}{}
		<-gate
	}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, entered, gate
}

// TestQueueFullBackpressure floods past the queue depth and expects an
// immediate ErrQueueFull, not blocking.
func TestQueueFullBackpressure(t *testing.T) {
	eng, _ := testEngine(t, 0)
	const depth = 2
	s, entered, gate := blockingScheduler(t, eng, depth, time.Hour)

	ctx := context.Background()
	results := make(chan error, depth+1)
	submitAsync := func(seed uint64) {
		go func() {
			_, err := s.Predict(ctx, testInput(seed), seed, 0)
			results <- err
		}()
	}
	// First job: admitted, dequeued, worker parks holding it.
	submitAsync(1)
	<-entered
	// Fill the queue behind the parked worker.
	for i := 0; i < depth; i++ {
		submitAsync(uint64(i + 2))
	}
	waitFor(t, func() bool { return s.QueueLen() == depth })
	// One more must bounce immediately.
	if _, err := s.Predict(ctx, testInput(99), 99, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// Release the worker; every admitted request must still be answered.
	close(gate)
	for i := 0; i < depth+1; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	s.Close(ctx)
}

// TestQueueTimeout: a request that waits in the queue past the deadline is
// rejected by the worker instead of evaluated.
func TestQueueTimeout(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, entered, gate := blockingScheduler(t, eng, 4, time.Nanosecond)
	ctx := context.Background()
	first := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctx, testInput(1), 1, 0)
		first <- err
	}()
	<-entered
	second := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctx, testInput(2), 2, 0)
		second <- err
	}()
	waitFor(t, func() bool { return s.QueueLen() == 1 })
	close(gate)
	if err := <-second; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("want ErrQueueTimeout, got %v", err)
	}
	<-first // the held job ages past 1ns too; just reap it
	s.Close(ctx)
}

// TestGracefulDrain: Close answers every admitted request and then rejects
// new ones.
func TestGracefulDrain(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, entered, gate := blockingScheduler(t, eng, 8, time.Hour)
	ctx := context.Background()
	const n = 4
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(seed uint64) {
			_, err := s.Predict(ctx, testInput(seed), seed, 0)
			results <- err
		}(uint64(i + 1))
	}
	<-entered // worker holds one job; the rest are queued or in flight
	waitFor(t, func() bool { return s.QueueLen() == n-1 })

	closed := make(chan error, 1)
	go func() {
		_, err := s.Close(ctx)
		closed <- err
	}()
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request dropped during drain: %v", err)
		}
	}
	if _, err := s.Predict(ctx, testInput(9), 9, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after drain, got %v", err)
	}
	sum, err := s.Close(ctx)
	if err != nil {
		t.Fatalf("second close: %v", err)
	}
	if sum.Served < n || sum.Abandoned != 0 || sum.ECC.RowReads == 0 {
		t.Fatalf("drain summary %+v", sum)
	}
}

// TestCloseDeadlinePartialDrain: when the drain deadline fires with work
// still queued, Close reports what it served and what it abandoned instead
// of returning empty-handed.
func TestCloseDeadlinePartialDrain(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, entered, gate := blockingScheduler(t, eng, 8, time.Hour)
	ctx := context.Background()

	// One served request establishes nonzero drain stats: the worker
	// parks on the gate, we hand it a single release token.
	first := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctx, testInput(1), 1, 0)
		first <- err
	}()
	<-entered
	gate <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	// Park the worker on a second job and queue two more behind it.
	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(seed uint64) {
			_, err := s.Predict(ctx, testInput(seed), seed, 0)
			results <- err
		}(uint64(i + 2))
	}
	<-entered
	waitFor(t, func() bool { return s.QueueLen() == 2 })

	expired, cancel := context.WithCancel(ctx)
	cancel()
	sum, err := s.Close(expired)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sum.Served != 1 {
		t.Fatalf("partial summary served %d, want 1", sum.Served)
	}
	if sum.Abandoned != 3 { // 1 in flight + 2 queued
		t.Fatalf("partial summary abandoned %d, want 3", sum.Abandoned)
	}
	if sum.ECC.RowReads == 0 {
		t.Fatal("partial summary lost the ECC tallies")
	}

	// Release the worker: the abandoned jobs still drain, and a full
	// Close now reports a clean summary.
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request dropped: %v", err)
		}
	}
	sum, err = s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Served != 4 || sum.Abandoned != 0 {
		t.Fatalf("final summary %+v", sum)
	}
}

// TestEvaluatePanicIsContained: a malformed tensor must fail the request,
// not the worker.
func TestEvaluatePanicIsContained(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, err := NewScheduler(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ctx := context.Background()
	if _, err := s.Predict(ctx, nn.FromSlice([]float64{1, 2}, 2), 1, 0); err == nil {
		t.Fatal("short tensor must fail")
	}
	// The pool must still serve well-formed requests afterwards.
	if _, err := s.Predict(ctx, testInput(1), 1, 0); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
}

// waitFor polls a condition with a deadline (used only to sequence test
// goroutine visibility, never to assert timing).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	// Generous under -race with parallel package runs on small CI boxes.
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// ten milliseconds: an earlier scheduler's workers finish exiting after its
// Close returns.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, polls := 0, 0; stable < 10 && polls < 1000; polls++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// TestMaintenanceIsOneGoroutine: patrol, controller and snapshots share one
// maintenance goroutine; Manual starts none, and neither does a pool with
// no maintenance duty. A scheduler costs its workers plus at most one.
func TestMaintenanceIsOneGoroutine(t *testing.T) {
	eng := quietEngine(t)
	const workers = 2
	duties := func(manual bool) Config {
		return Config{
			Workers: workers, Manual: manual, Recovery: recoveryConfig(1),
			Scrub:      ScrubConfig{Enabled: true, Interval: time.Hour},
			Controller: ControllerConfig{Enabled: true, Interval: time.Hour},
			Persist:    PersistConfig{Dir: t.TempDir()},
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"background", duties(false), workers + 1},
		{"manual", duties(true), workers},
		{"none", Config{Workers: workers}, workers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := settledGoroutines()
			s, err := NewScheduler(eng, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runtime.NumGoroutine() - before
			if _, err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("NewScheduler started %d goroutines, want %d", got, tc.want)
			}
		})
	}
}
