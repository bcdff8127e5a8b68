package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/replica"
)

func replicaTestConfig(n int) Config {
	cfg := Config{Workers: 2, QueueDepth: 64, QueueTimeout: time.Minute, Recovery: recoveryConfig(1)}
	if n > 1 {
		cfg.Replicas = replica.Config{N: n, Monitor: fault.MonitorConfig{Window: 4096, MinReads: 8, TripRate: 0.05}}
	}
	return cfg
}

// referenceClasses computes each seed's answer on clean quiet hardware —
// the bit-deterministic truth a replicated pool must keep returning no
// matter which copies are damaged, detached, or repaired mid-traffic.
func referenceClasses(t *testing.T, seeds []uint64) map[uint64]int {
	t.Helper()
	eng := quietEngine(t)
	s, err := NewScheduler(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	out := make(map[uint64]int, len(seeds))
	for _, seed := range seeds {
		p, err := s.Predict(context.Background(), testInput(seed), seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[seed] = p.Class
	}
	return out
}

// TestReplicaFailoverChaos is the chaos drill: an R=2 pool takes live HTTP
// traffic while one replica's layer is wrecked mid-stream. Every request
// must still answer 200 with the clean-hardware class for its seed, no
// layer may degrade to the software path, and the repair must surface in
// the ladder counters, the mnn_replica_* series, and /readyz.
func TestReplicaFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill: skipped in -short")
	}
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	ref := referenceClasses(t, seeds)

	eng := quietEngine(t)
	srv, err := NewServer(eng, Model{Name: "tiny", InShape: []int{16}}, replicaTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	post := func(seed uint64) (int, int) {
		rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s, "seed": %d, "top_k": 1}`, imageJSON(seed), seed))
		if rec.Code != http.StatusOK {
			return rec.Code, -1
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return rec.Code, resp.Results[0].Class
	}

	// Phase A: healthy traffic.
	for _, seed := range seeds[:10] {
		if code, class := post(seed); code != http.StatusOK || class != ref[seed] {
			t.Fatalf("healthy phase seed %d: code=%d class=%d want %d", seed, code, class, ref[seed])
		}
	}

	// Kill one replica's layer mid-traffic.
	set := srv.Scheduler().ReplicaSet()
	wreckLayer(t, set.Engine(1), 0)

	// Phase B: concurrent traffic against the damaged set.
	type outcome struct {
		seed  uint64
		code  int
		class int
	}
	results := make(chan outcome, len(seeds))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 10 + g; i < len(seeds); i += 3 {
				seed := seeds[i]
				code, class := post(seed)
				results <- outcome{seed: seed, code: code, class: class}
			}
		}(g)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("seed %d answered %d — the chaos drill allows zero 5xx", r.seed, r.code)
		}
		if r.class != ref[r.seed] {
			t.Fatalf("seed %d class %d, want the clean-hardware answer %d", r.seed, r.class, ref[r.seed])
		}
	}

	// No layer fell back to software: the spatial rung absorbed the damage.
	if d := eng.DegradedLayers(); len(d) != 0 {
		t.Fatalf("degraded layers %v — spatial redundancy must keep crossbars serving", d)
	}
	rc := srv.Scheduler().RecoveryCounters()
	if rc.Degrades != 0 {
		t.Fatalf("degrades = %d, want 0", rc.Degrades)
	}
	if rc.Failovers == 0 {
		t.Fatal("no spatial repairs recorded despite a wrecked replica")
	}
	st := set.Status()
	if st.Replicas[1].Failovers == 0 {
		t.Fatal("router recorded no failovers away from the wrecked replica")
	}

	// Operator surfacing: mnn_replica_* series and per-replica /readyz rows.
	if v := scrapeMetric(t, srv, `mnn_replica_attached{replica="0"}`); v != 1 {
		t.Fatalf("replica 0 attached gauge = %d", v)
	}
	if v := scrapeMetric(t, srv, `mnn_replica_routed_mvms_total{replica="1"}`); v == 0 {
		t.Fatal("replica 1 routed counter missing traffic")
	}
	if v := scrapeMetric(t, srv, `mnn_replica_detaches_total{replica="1"}`); v == 0 {
		t.Fatal("repair cycle recorded no detach")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after chaos: %d", rec.Code)
	}
	var rz readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if len(rz.Replicas) != 2 {
		t.Fatalf("readyz replicas = %+v, want 2 rows", rz.Replicas)
	}
	for _, r := range rz.Replicas {
		if !r.Attached {
			t.Fatalf("replica %d left detached after repair", r.ID)
		}
	}
}

// TestSpatialRungBeatsSpentRemapBudget is the R contrast: under identical
// damage and a forbidden inline remap budget, the single copy degrades to
// software while the replicated pool repairs the sick copy off-rotation and
// keeps every answer on crossbars — the detached-repair exemption from
// MaxRemaps is the whole point of paying for a sibling.
func TestSpatialRungBeatsSpentRemapBudget(t *testing.T) {
	ctx := context.Background()
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	ref := referenceClasses(t, seeds)

	// Arm 1: single copy, MaxRemaps < 0 — the ladder's only move is rung 3.
	engA := quietEngine(t)
	sa, err := NewScheduler(engA, Config{Workers: 1, Recovery: recoveryConfig(-1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close(ctx)
	wreckLayer(t, engA, 0)
	for _, seed := range seeds {
		if _, err := sa.Predict(ctx, testInput(seed), seed, 1); err != nil {
			t.Fatal(err)
		}
	}
	if rc := sa.RecoveryCounters(); rc.Degrades == 0 {
		t.Fatalf("single copy with spent budget did not degrade: %+v", rc)
	}
	if d := engA.DegradedLayers(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("single copy degraded layers %v, want [0]", d)
	}

	// Arm 2: same damage, same budget, but a sibling to lean on.
	engB := quietEngine(t)
	cfg := replicaTestConfig(2)
	cfg.Workers = 1
	cfg.Recovery = recoveryConfig(-1)
	sb, err := NewScheduler(engB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close(ctx)
	wreckLayer(t, engB, 0) // engB is replica 0, the copy both arms damage
	for _, seed := range seeds {
		p, err := sb.Predict(ctx, testInput(seed), seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Class != ref[seed] {
			t.Fatalf("seed %d class %d, want %d", seed, p.Class, ref[seed])
		}
	}
	rc := sb.RecoveryCounters()
	if rc.Degrades != 0 {
		t.Fatalf("replicated pool degraded %d layers under the same damage", rc.Degrades)
	}
	if rc.Failovers == 0 {
		t.Fatal("replicated pool recorded no spatial repairs")
	}
	if d := engB.DegradedLayers(); len(d) != 0 {
		t.Fatalf("replicated pool degraded layers %v, want none", d)
	}
}

// TestRepairKeepsSetWideDegrade: a layer degraded on every copy stays
// degraded on every copy when one copy's routing breaker opens and the
// request path repairs that copy — the repair re-programs its arrays but
// must not put it back on crossbars while its siblings serve software.
func TestRepairKeepsSetWideDegrade(t *testing.T) {
	ctx := context.Background()
	cfg := replicaTestConfig(2)
	cfg.Workers = 1
	s, err := NewScheduler(quietEngine(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	set := s.ReplicaSet()
	if err := set.SetFallback(0, true); err != nil {
		t.Fatal(err)
	}
	if st := set.Monitor(1).ObserveOne(0, accel.Stats{Detected: 64}); st != fault.BreakerOpen {
		t.Fatalf("copy 1 layer 0 routing breaker %v, want open", st)
	}
	if _, err := s.Predict(ctx, testInput(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	if rc := s.RecoveryCounters(); rc.Failovers == 0 {
		t.Fatalf("the open routing breaker was not repaired: %+v", rc)
	}
	for r := 0; r < set.Size(); r++ {
		if !set.Engine(r).Fallback(0) {
			t.Fatalf("copy %d left the software path after the repair (remaps %d)", r, set.Engine(r).RemapCount(0))
		}
	}
}

// TestCanceledQueuedRequestNotServed: a client that disconnects while its
// job sits in the queue must not consume a session slot or count as served
// — only the cancellation tally moves.
func TestCanceledQueuedRequestNotServed(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, entered, gate := blockingScheduler(t, eng, 4, time.Hour)
	ctx := context.Background()

	first := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctx, testInput(1), 1, 0)
		first <- err
	}()
	<-entered // worker parks holding the first job

	cctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := s.Predict(cctx, testInput(2), 2, 0)
		second <- err
	}()
	waitFor(t, func() bool { return s.QueueLen() == 1 })
	cancel() // client vanishes while queued
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller got %v, want context.Canceled", err)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	waitFor(t, func() bool { return s.Canceled() == 1 })

	sum, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Served != 1 {
		t.Fatalf("served = %d, want 1 — a canceled queued job must not count", sum.Served)
	}
	if sum.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", sum.Canceled)
	}
}

// TestBackoffDelay: the retry pause is a pure function of (base, max,
// attempt, seed) — exponential with jitter in [d, 2d), capped, and disabled
// for non-positive bases.
func TestBackoffDelay(t *testing.T) {
	if d := backoffDelay(0, 0, 1, 42); d != 0 {
		t.Fatalf("zero base slept %v", d)
	}
	if d := backoffDelay(-time.Millisecond, 0, 1, 42); d != 0 {
		t.Fatalf("negative base slept %v", d)
	}
	base, max := 2*time.Millisecond, 16*time.Millisecond
	d1 := backoffDelay(base, max, 1, 42)
	if d1 != backoffDelay(base, max, 1, 42) {
		t.Fatal("same (seed, attempt) produced different delays")
	}
	if d1 < base || d1 >= 2*base {
		t.Fatalf("attempt 1 delay %v outside [base, 2*base)", d1)
	}
	d3 := backoffDelay(base, max, 3, 42)
	if lo := base << 2; d3 < lo || d3 >= 2*lo {
		t.Fatalf("attempt 3 delay %v outside [%v, %v)", d3, lo, 2*lo)
	}
	for _, attempt := range []int{10, 1000} {
		if d := backoffDelay(base, max, attempt, 7); d < max || d >= 2*max {
			t.Fatalf("attempt %d delay %v escaped the cap [%v, %v)", attempt, d, max, 2*max)
		}
	}
}
