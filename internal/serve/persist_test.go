package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/persist"
)

// drillCampaign is the deterministic wear-out schedule the restart drills
// run under: step 1 kills layer 0 outright, step 3 decays layer 2 — chosen
// so the kill point at step 2 lands mid-campaign with recovery state live.
func drillCampaign() fault.Campaign {
	return fault.Campaign{Seed: 42, Events: []fault.Event{
		{Step: 1, Layer: 0, Kind: fault.StuckLRS, Rate: 1.0},
		{Step: 3, Layer: 2, Kind: fault.StuckLRS, Rate: 0.3},
		{Step: 3, Layer: 2, Kind: fault.Drift, Rate: 0.5, Drift: -1},
	}}
}

// drillScheduler builds the fully-armed deterministic pool: one worker (so
// monitor-window updates land in request order), manual scrub, controller
// and persister (so every background actor runs on the request-step clock),
// and the recovery ladder.
func drillScheduler(t *testing.T, stateDir string) (*Scheduler, *fault.Runner) {
	t.Helper()
	eng, _ := testEngine(t, 0)
	cfg := Config{
		Workers:    1,
		QueueDepth: 16,
		Manual:     true,
		Recovery:   recoveryConfig(1),
		Scrub:      ScrubConfig{Enabled: true},
		Controller: ControllerConfig{Enabled: true},
	}
	if stateDir != "" {
		cfg.Persist = PersistConfig{Dir: stateDir}
	}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := fault.NewRunner(drillCampaign(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCampaign(runner); err != nil {
		t.Fatalf("campaign cursor refused: %v", err)
	}
	return s, runner
}

// driveSteps advances the campaign step by step, serving a deterministic
// request burst and running one patrol pass and one controller tick per
// step. Timing fields are zeroed: the determinism contract covers outputs
// and device state, not wall-clock.
func driveSteps(t *testing.T, s *Scheduler, runner *fault.Runner, from, to int) []Prediction {
	t.Helper()
	var out []Prediction
	for step := from; step <= to; step++ {
		if _, err := runner.Advance(step); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			seed := uint64(step*100 + i + 1)
			p, err := s.Predict(context.Background(), testInput(seed), seed, 2)
			if err != nil {
				t.Fatalf("step %d request %d: %v", step, i, err)
			}
			p.QueueWait, p.Infer = 0, 0
			out = append(out, p)
		}
		if err := s.PatrolNow(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ControllerTick(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// finalState canonicalizes a pool's full durable state for comparison.
func finalState(t *testing.T, s *Scheduler) []byte {
	t.Helper()
	data, err := persist.Encode(s.buildState())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestartDrillByteIdentical is the crash-consistency contract: kill a
// pool mid-campaign after a snapshot, restart from the state directory, and
// the resumed trajectory — every per-request output and the final device +
// protection state — is byte-identical to an unkilled control run.
func TestRestartDrillByteIdentical(t *testing.T) {
	const killStep, lastStep = 2, 4
	dir := t.TempDir()

	// Run A: serve through the kill step, then die. Close flushes the final
	// snapshot — the same file the periodic snapshotter would have left.
	runA, runnerA := drillScheduler(t, dir)
	predsA := driveSteps(t, runA, runnerA, 1, killStep)
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Run B: a new process boots from the snapshot and resumes.
	runB, runnerB := drillScheduler(t, dir)
	if ps, ok := runB.PersistStatus(); !ok || ps.Outcome != RestoreRestored {
		t.Fatalf("restart did not restore: %+v", ps)
	}
	if got := runB.Served(); got != uint64(len(predsA)) {
		t.Fatalf("restored wear clock at %d, want %d", got, len(predsA))
	}
	predsB := driveSteps(t, runB, runnerB, killStep+1, lastStep)

	// Control: the same lifetime with no kill (and no persistence, proving
	// the snapshotter itself does not perturb the trajectory).
	ctl, runnerC := drillScheduler(t, "")
	predsC := driveSteps(t, ctl, runnerC, 1, lastStep)

	resumed := append(append([]Prediction{}, predsA...), predsB...)
	if len(resumed) != len(predsC) {
		t.Fatalf("resumed run served %d requests, control %d", len(resumed), len(predsC))
	}
	for i := range predsC {
		want, _ := json.Marshal(predsC[i])
		got, _ := json.Marshal(resumed[i])
		if !bytes.Equal(want, got) {
			t.Fatalf("request %d diverged after restart:\nresumed: %s\ncontrol: %s", i, got, want)
		}
	}
	// The full durable state — arrays, row maps, breaker windows, scrub
	// cursors, controller level, counters — must also be byte-identical.
	if !bytes.Equal(finalState(t, runB), finalState(t, ctl)) {
		t.Fatal("final device+protection state diverged after restart")
	}
	if _, err := runB.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFallsBackFresh: a mangled snapshot must not restore,
// must not crash the boot, and must not cost a single request — the pool
// serves from a fresh map and says so on /healthz.
func TestCorruptSnapshotFallsBackFresh(t *testing.T) {
	dir := t.TempDir()

	// Leave a valid snapshot behind, then corrupt it on disk.
	runA, runnerA := drillScheduler(t, dir)
	driveSteps(t, runA, runnerA, 1, 1)
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(persist.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(persist.Path(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng, net := testEngine(t, 0)
	cfg := Config{Workers: 2, QueueDepth: 16, Manual: true, Persist: PersistConfig{Dir: dir}}
	srv, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape}, cfg)
	if err != nil {
		t.Fatalf("corrupt snapshot must not fail the boot: %v", err)
	}
	defer srv.Shutdown(context.Background())

	ps, ok := srv.Scheduler().PersistStatus()
	if !ok || ps.Outcome != RestoreFallback || ps.RestoreErr == "" {
		t.Fatalf("fallback not recorded: %+v", ps)
	}
	if srv.Scheduler().Served() != 0 {
		t.Fatal("fallback boot inherited a wear clock from the refused snapshot")
	}

	// Zero 5xx under traffic.
	for seed := uint64(1); seed <= 20; seed++ {
		body := `{"image": ` + imageJSON(seed) + `}`
		if rec := postPredict(t, srv, body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s) after snapshot fallback", seed, rec.Code, rec.Body)
		}
	}

	// /healthz annotates the fallback.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Persist == nil || h.Persist.Outcome != string(RestoreFallback) || h.Persist.RestoreErr == "" {
		t.Fatalf("healthz does not annotate the fallback: %+v", h.Persist)
	}

	// The next snapshot replaces the corrupt file and the pool round-trips
	// again.
	if err := srv.Scheduler().SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Load(dir); err != nil {
		t.Fatalf("post-fallback snapshot unreadable: %v", err)
	}
}

// TestSnapshotRefusedAcrossConfigs: a snapshot taken under one configuration
// is refused — completely, with the fallback recorded — when the pool is
// rebuilt under another (different engine seed → different identity).
func TestSnapshotRefusedAcrossConfigs(t *testing.T) {
	dir := t.TempDir()
	runA, runnerA := drillScheduler(t, dir)
	driveSteps(t, runA, runnerA, 1, 1)
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	eng, _ := testEngine(t, 0)
	cfg := Config{Workers: 1, Manual: true, Persist: PersistConfig{Dir: dir}}
	// Same engine, but a pool without recovery armed: the snapshot carries
	// monitor + controller state this configuration cannot host.
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ps, ok := s.PersistStatus()
	if !ok || ps.Outcome != RestoreFallback {
		t.Fatalf("cross-config snapshot not refused: %+v", ps)
	}
	if s.Served() != 0 {
		t.Fatal("refused snapshot still leaked state into the pool")
	}
}

// TestBackgroundSnapshotterWritesOffHotPath: with the loop armed (tiny
// thresholds), serving traffic eventually publishes a snapshot without any
// explicit SnapshotNow — and the snapshot is loadable.
func TestBackgroundSnapshotterWritesOffHotPath(t *testing.T) {
	dir := t.TempDir()
	eng, _ := testEngine(t, 0)
	cfg := Config{Workers: 2, QueueDepth: 16,
		Persist: PersistConfig{Dir: dir, Every: 4}, persistPoll: 2 * time.Millisecond}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	for seed := uint64(1); seed <= 16; seed++ {
		if _, err := s.Predict(context.Background(), testInput(seed), seed, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		ps, _ := s.PersistStatus()
		return ps.Saves > 0
	})
	st, err := persist.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduler.Served == 0 || st.Shards == nil {
		t.Fatalf("background snapshot incomplete: %+v", st.Scheduler)
	}
}

// TestRaceSnapshotNowVsTraffic hammers manual snapshots against live
// batches — the persister must capture a consistent tree while workers
// serve. Run under -race in CI.
func TestRaceSnapshotNowVsTraffic(t *testing.T) {
	dir := t.TempDir()
	eng, _ := testEngine(t, 0.005)
	cfg := Config{Workers: 4, QueueDepth: 64, Recovery: recoveryConfig(1),
		Manual: true, Persist: PersistConfig{Dir: dir}}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SnapshotNow(); err != nil {
				t.Errorf("snapshot under traffic: %v", err)
				return
			}
		}
	}()
	for round := 0; round < 4; round++ {
		for seed := uint64(0); seed < 16; seed++ {
			if _, err := s.Predict(context.Background(), testInput(seed), uint64(round)*100+seed+1, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if _, err := persist.Load(dir); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
}

// TestSnapshotNowDisabled: without a state dir the manual hook refuses.
func TestSnapshotNowDisabled(t *testing.T) {
	eng, _ := testEngine(t, 0)
	s, err := NewScheduler(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if err := s.SnapshotNow(); err == nil {
		t.Fatal("SnapshotNow must refuse when persistence is disabled")
	}
	if _, ok := s.PersistStatus(); ok {
		t.Fatal("PersistStatus must report disabled")
	}
}

// TestBackoffDelayEdgeCases pins the ladder's backoff arithmetic at its
// boundaries: non-positive bases, attempt underflow/overflow, and the
// max-cap clamp (including pathological shifts that would wrap int64).
func TestBackoffDelayEdgeCases(t *testing.T) {
	const seed = 7
	if d := backoffDelay(0, time.Second, 3, seed); d != 0 {
		t.Fatalf("zero base: %v, want 0", d)
	}
	if d := backoffDelay(-time.Second, time.Second, 3, seed); d != 0 {
		t.Fatalf("negative base: %v, want 0", d)
	}
	// Attempt 0 and negative attempts behave as the first attempt:
	// deterministic in [base, 2*base).
	for _, attempt := range []int{0, -5} {
		d := backoffDelay(time.Millisecond, 0, attempt, seed)
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("attempt %d: %v outside [1ms, 2ms)", attempt, d)
		}
	}
	// Huge attempt counts must not shift into the sign bit; the cap wins.
	for _, attempt := range []int{64, 1 << 20, int(^uint(0) >> 1)} {
		d := backoffDelay(time.Millisecond, 50*time.Millisecond, attempt, seed)
		if d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Fatalf("attempt %d: %v outside [50ms, 100ms)", attempt, d)
		}
		if d < 0 {
			t.Fatalf("attempt %d: negative delay %v", attempt, d)
		}
	}
	// Uncapped huge attempts still clamp the shift rather than overflow.
	if d := backoffDelay(time.Millisecond, 0, 1<<30, seed); d <= 0 {
		t.Fatalf("uncapped overflow attempt: non-positive delay %v", d)
	}
	// A pathological base near the int64 ceiling must not wrap negative.
	huge := time.Duration(1) << 50
	if d := backoffDelay(huge, 0, 21, seed); d <= 0 {
		t.Fatalf("huge base: non-positive delay %v", d)
	}
	// The jitter is deterministic in (seed, attempt).
	a := backoffDelay(time.Millisecond, 0, 3, 9)
	b := backoffDelay(time.Millisecond, 0, 3, 9)
	if a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
}

// TestReplicaRestartRestoresDetachState: in a replicated pool the snapshot
// carries every copy's arrays plus the trust state — a detached replica
// stays detached across the restart, and the resumed trajectory matches the
// unkilled control byte for byte.
func TestReplicaRestartRestoresDetachState(t *testing.T) {
	dir := t.TempDir()
	build := func(stateDir string) *Scheduler {
		eng, _ := testEngine(t, 0)
		cfg := replicaTestConfig(2)
		cfg.Workers = 1
		if stateDir != "" {
			cfg.Manual = true
			cfg.Persist = PersistConfig{Dir: stateDir}
		}
		s, err := NewScheduler(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serveBurst := func(s *Scheduler, base uint64) []Prediction {
		var out []Prediction
		for i := uint64(0); i < 6; i++ {
			p, err := s.Predict(context.Background(), testInput(base+i), base+i, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.QueueWait, p.Infer = 0, 0
			out = append(out, p)
		}
		return out
	}

	runA := build(dir)
	predsA := serveBurst(runA, 1)
	if err := runA.ReplicaSet().Detach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	runB := build(dir)
	if ps, ok := runB.PersistStatus(); !ok || ps.Outcome != RestoreRestored {
		t.Fatalf("replicated restart did not restore: %+v", ps)
	}
	if runB.ReplicaSet().Attached(1) {
		t.Fatal("restart re-attached a detached replica")
	}
	predsB := serveBurst(runB, 100)

	ctl := build("")
	predsCA := serveBurst(ctl, 1)
	if err := ctl.ReplicaSet().Detach(1); err != nil {
		t.Fatal(err)
	}
	predsCB := serveBurst(ctl, 100)

	for i := range predsA {
		a, _ := json.Marshal(predsA[i])
		c, _ := json.Marshal(predsCA[i])
		if !bytes.Equal(a, c) {
			t.Fatalf("pre-kill request %d diverged: %s vs %s", i, a, c)
		}
	}
	for i := range predsB {
		b, _ := json.Marshal(predsB[i])
		c, _ := json.Marshal(predsCB[i])
		if !bytes.Equal(b, c) {
			t.Fatalf("post-restart request %d diverged: %s vs %s", i, b, c)
		}
	}
	if !bytes.Equal(finalState(t, runB), finalState(t, ctl)) {
		t.Fatal("replicated final state diverged after restart")
	}
	if _, err := runB.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPredictAllocBoundWithPersist: arming the background snapshotter
// must add zero allocations to the warm request path — the persister polls
// the served counter from its own goroutine and workers never see it. The
// bound matches TestWarmPredictAllocBound exactly. The loop is live during
// the measurement but its snapshot threshold is unreachable:
// AllocsPerRun attributes allocations from every goroutine in the process,
// so an actual snapshot firing mid-measurement would charge its (off-path,
// O(model)) state copy to the request path and fail the test spuriously —
// what is being pinned here is that serving itself pays nothing while the
// snapshotter idles alongside.
func TestWarmPredictAllocBoundWithPersist(t *testing.T) {
	eng, _ := testEngine(t, 0)
	cfg := Config{Workers: 1,
		Persist: PersistConfig{Dir: t.TempDir(), Every: 1 << 62}, persistPoll: time.Millisecond}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	x := testInput(1)
	for i := 0; i < 20; i++ {
		if _, err := s.Predict(context.Background(), x, uint64(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	seed := uint64(100)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		if _, err := s.Predict(context.Background(), x, seed, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("warm Predict with persistence allocates %.0f times per request, want <= 12", allocs)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if ps, _ := s.PersistStatus(); ps.Saves == 0 {
		t.Fatal("snapshotter never saved")
	}
}

// BenchmarkPredictPersistArmed measures the request path with the
// background snapshotter live; allocs/op is the gated number (compare
// BenchmarkPredict-shaped baselines — persistence must not move it).
func BenchmarkPredictPersistArmed(b *testing.B) {
	eng, _ := testEngine(b, 0)
	cfg := Config{Workers: 1,
		Persist: PersistConfig{Dir: b.TempDir(), Every: 64}, persistPoll: time.Millisecond}
	s, err := NewScheduler(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(context.Background())
	x := testInput(1)
	for i := 0; i < 20; i++ {
		if _, err := s.Predict(context.Background(), x, uint64(i+1), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(context.Background(), x, uint64(1000+i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildStateCountsAnsweredRequest: once Predict returns, the request is
// on the wear clock. A snapshot built at that instant must count it and its
// ECU outcomes, or a crash right after an answer persists a clock one
// request behind the device state it stamps. Two workers let the reply and
// the snapshot race as they do in a live pool.
func TestBuildStateCountsAnsweredRequest(t *testing.T) {
	eng, _ := testEngine(t, 0.001)
	s, err := NewScheduler(eng, Config{Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	var rowReads uint64
	for i := uint64(1); i <= 300; i++ {
		p, err := s.Predict(context.Background(), testInput(i), i, 1)
		if err != nil {
			t.Fatal(err)
		}
		rowReads += p.Stats.RowReads
		st := s.buildState().Scheduler
		if st.Served != i {
			t.Fatalf("request %d answered but the snapshot's wear clock reads %d", i, st.Served)
		}
		if st.ECC.RowReads != rowReads {
			t.Fatalf("request %d answered but the snapshot counts %d row reads, want %d", i, st.ECC.RowReads, rowReads)
		}
	}
}

// TestRestoredLevelAppliesBeforeFirstTick: a background replicated pool
// booted from a snapshot taken at protection level 2 serves at level 2's
// patrol cadence and vote threshold before its maintenance loop has ticked
// once — the loop arms its timers after the restore.
func TestRestoredLevelAppliesBeforeFirstTick(t *testing.T) {
	dir := t.TempDir()
	const base = time.Hour
	build := func(manual bool) *Scheduler {
		cfg := replicaTestConfig(2)
		cfg.Workers = 1
		cfg.Manual = manual
		cfg.Replicas.VoteThreshold = 4
		cfg.Scrub = ScrubConfig{Enabled: true, Interval: base}
		cfg.Controller = ControllerConfig{Enabled: true, Interval: time.Hour, Hysteresis: 1, Cooldown: 1}
		cfg.Persist = PersistConfig{Dir: dir}
		s, err := NewScheduler(quietEngine(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Run A tightens to level 2 on the manual clock, then flushes its
	// snapshot on Close.
	runA := build(true)
	var want ControllerStatus
	for i := 0; i < 10 && want.Level < 2; i++ {
		runA.Monitor().Observe(map[int]accel.Stats{0: {Clean: 98, Detected: 2}})
		if _, err := runA.ControllerTick(); err != nil {
			t.Fatal(err)
		}
		want, _ = runA.ControllerStatus()
	}
	if want.Level != 2 || want.ScrubInterval != base/4 || want.VoteThreshold != 2 {
		t.Fatalf("run A never reached level 2 at base/4 and vote threshold 2: %+v", want)
	}
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	runB := build(false)
	defer runB.Close(context.Background())
	if ps, ok := runB.PersistStatus(); !ok || ps.Outcome != RestoreRestored {
		t.Fatalf("restart did not restore: %+v", ps)
	}
	got, _ := runB.ControllerStatus()
	if got.Ticks != want.Ticks {
		t.Fatalf("maintenance loop ticked before the check: %d ticks, want %d", got.Ticks, want.Ticks)
	}
	if got.Level != 2 || runB.ScrubInterval() != base/4 {
		t.Fatalf("restored level %d at patrol interval %v, want 2 at %v", got.Level, runB.ScrubInterval(), base/4)
	}
	if th := runB.ReplicaSet().VoteThreshold(); th != want.VoteThreshold {
		t.Fatalf("restored vote threshold %d, want the level-2 value %d", th, want.VoteThreshold)
	}
}
