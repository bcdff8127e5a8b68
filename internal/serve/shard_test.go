package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/scrub"
	"repro/internal/shard"
)

// shardTestEngine maps a four-MVM-layer network — enough mapped layers to
// partition into four single-layer fault domains.
func shardTestEngine(t testing.TB) (*accel.Engine, *nn.Network) {
	t.Helper()
	net := shardTestNet()
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	eng, err := accel.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

// shardTestNet is the four-MVM-layer network shardTestEngine maps.
func shardTestNet() *nn.Network {
	rng := rand.New(rand.NewPCG(7, 3))
	return &nn.Network{Name: "tiny4", InShape: []int{16},
		Layers: []nn.Layer{
			nn.NewDense(16, 14, rng), &nn.ReLU{},
			nn.NewDense(14, 12, rng), &nn.ReLU{},
			nn.NewDense(12, 8, rng), &nn.ReLU{},
			nn.NewDense(8, 4, rng),
		}}
}

// shardTestConfig is the sharded pool's serving configuration: n fault
// domains, each with an R=2 replica set, the recovery ladder armed.
func shardTestConfig(n int) Config {
	return Config{
		Workers: 2, QueueDepth: 64, QueueTimeout: time.Minute,
		Recovery: recoveryConfig(1),
		Replicas: replica.Config{N: 2, Monitor: fault.MonitorConfig{Window: 4096, MinReads: 8, TripRate: 0.05}},
		Shards:   n,
	}
}

// TestServeShardCountInvariance lifts the tentpole contract to the serving
// layer: the full Prediction a client receives — class, ranking, seed, and
// per-request ECU tallies — is identical whether the pool slices the layers
// into 1, 2, or 4 fault domains.
func TestServeShardCountInvariance(t *testing.T) {
	const n = 24
	inputs := make([]*nn.Tensor, n)
	for i := range inputs {
		inputs[i] = testInput(uint64(i))
	}
	run := func(shards int) []Prediction {
		eng, _ := shardTestEngine(t)
		cfg := shardTestConfig(shards)
		// One worker: request-ordered monitor updates, so the comparison
		// covers the full Prediction including ECU tallies.
		cfg.Workers = 1
		s, err := NewScheduler(eng, cfg)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		defer s.Close(context.Background())
		preds, err := s.PredictBatch(context.Background(), inputs, 5000, 0)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		for i := range preds {
			preds[i].QueueWait, preds[i].Infer = 0, 0
		}
		return preds
	}
	ref := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for i := range ref {
			a, _ := json.Marshal(ref[i])
			b, _ := json.Marshal(got[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("image %d differs between 1 and %d shards:\n 1: %s\n%d: %s",
					i, shards, a, shards, b)
			}
		}
	}
}

// TestServeReplicatedIsOneShardPool: an unsharded replicated pool and a
// one-shard pool are the same pool — the full Prediction and the health
// monitor's view after 24 requests match byte for byte.
func TestServeReplicatedIsOneShardPool(t *testing.T) {
	inputs := make([]*nn.Tensor, 24)
	for i := range inputs {
		inputs[i] = testInput(uint64(i))
	}
	run := func(shards int) (preds, health []byte) {
		eng, _ := shardTestEngine(t)
		cfg := shardTestConfig(shards)
		cfg.Workers = 1
		s, err := NewScheduler(eng, cfg)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		defer s.Close(context.Background())
		ps, err := s.PredictBatch(context.Background(), inputs, 5000, 0)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		for i := range ps {
			ps[i].QueueWait, ps[i].Infer = 0, 0
		}
		preds, _ = json.Marshal(ps)
		health, _ = json.Marshal(s.Health())
		return preds, health
	}
	p0, h0 := run(0)
	p1, h1 := run(1)
	if !bytes.Equal(p0, p1) {
		t.Fatalf("predictions differ between Shards 0 and 1:\n0: %s\n1: %s", p0, p1)
	}
	if !bytes.Equal(h0, h1) {
		t.Fatalf("Health differs between Shards 0 and 1:\n0: %s\n1: %s", h0, h1)
	}
}

// shardAdminServer builds a sharded HTTP server with the operator API armed.
func shardAdminServer(t *testing.T, shards int) *Server {
	t.Helper()
	eng, net := shardTestEngine(t)
	cfg := shardTestConfig(shards)
	cfg.Admin = AdminConfig{Enabled: true}
	srv, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// postAdmin sends one operator command and returns the recorder.
func postAdmin(t *testing.T, srv *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// shardImageJSON flattens a 16-wide test input for the tiny4 network.
func shardImageJSON(seed uint64) string {
	x := testInput(seed)
	b, _ := json.Marshal(x.Data)
	return string(b)
}

// TestShardChaosDrill is the failover drill: a 2-shard pool takes live HTTP
// traffic while an operator drains, repairs, and rejoins one shard through
// the admin API. Not a single request may fail — drained layers serve from
// the software path, siblings from hardware — and the whole lifecycle must
// be observable afterward in /admin/shards, /readyz, and the mnn_shard_*
// series. Run under -race in CI.
func TestShardChaosDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill: skipped in -short")
	}
	srv := shardAdminServer(t, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan string, 1)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := uint64(g*1000 + 1); ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"image": %s, "seed": %d}`, shardImageJSON(seed), seed)
				if rec := postPredict(t, srv, body); rec.Code != http.StatusOK {
					select {
					case errc <- fmt.Sprintf("seed %d: status %d (%s)", seed, rec.Code, rec.Body):
					default:
					}
					return
				}
			}
		}(g)
	}

	// The operator lifecycle, mid-traffic: kill shard 1 (drain), re-program
	// it on its spare arrays (repair), return it to hardware (rejoin).
	time.Sleep(20 * time.Millisecond)
	for _, action := range []string{"drain", "repair", "rejoin"} {
		rec := postAdmin(t, srv, "/admin/shards", fmt.Sprintf(`{"action":%q,"shard":1}`, action))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", action, rec.Code, rec.Body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatalf("request failed during the drill: %s", msg)
	default:
	}

	// The rejoin is visible on /admin/shards: both shards serving, nothing
	// degraded, and the lifecycle counters advanced on shard 1 only.
	req := httptest.NewRequest(http.MethodGet, "/admin/shards", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("admin status: %d", rec.Code)
	}
	var status shardsAdminResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Shards) != 2 {
		t.Fatalf("admin reports %d shards, want 2", len(status.Shards))
	}
	for _, sh := range status.Shards {
		if sh.State != "serving" {
			t.Fatalf("shard %d state %q after the drill", sh.ID, sh.State)
		}
		if len(sh.DegradedLayers) != 0 {
			t.Fatalf("shard %d still degrades %v", sh.ID, sh.DegradedLayers)
		}
	}
	if sh := status.Shards[1]; sh.Drains != 1 || sh.Repairs != 1 || sh.Rejoins != 1 {
		t.Fatalf("shard 1 lifecycle counters: %+v", sh)
	}
	if sh := status.Shards[0]; sh.Drains != 0 || sh.Rejoins != 0 {
		t.Fatalf("sibling shard 0 was touched: %+v", sh)
	}

	// ... and in the Prometheus series ...
	for series, want := range map[string]uint64{
		`mnn_shard_maintenance_total{shard="1",kind="drain"}`:  1,
		`mnn_shard_maintenance_total{shard="1",kind="rejoin"}`: 1,
		`mnn_shard_state{shard="1",state="serving"}`:           1,
		`mnn_shard_state{shard="1",state="draining"}`:          0,
	} {
		if got := scrapeMetric(t, srv, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}

	// ... and on /readyz, whose per-shard rows mirror the admin view.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after drill: %d (%s)", rec.Code, rec.Body)
	}
	var rz readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if len(rz.Shards) != 2 {
		t.Fatalf("/readyz reports %d shard rows, want 2", len(rz.Shards))
	}
}

// TestShardDrainVisibleInStatus pins the mid-lifecycle view: while a shard
// is drained its state and degraded layers show on /admin/shards and
// /readyz, and a repair on a still-serving shard is refused.
func TestShardDrainVisibleInStatus(t *testing.T) {
	srv := shardAdminServer(t, 2)

	// Repair before drain: refused — re-programming a serving shard would
	// stall traffic on its layer write locks.
	if rec := postAdmin(t, srv, "/admin/shards", `{"action":"repair","shard":0}`); rec.Code != http.StatusConflict {
		t.Fatalf("repair on a serving shard: status %d, want 409 (%s)", rec.Code, rec.Body)
	}

	if rec := postAdmin(t, srv, "/admin/shards", `{"action":"drain","shard":0}`); rec.Code != http.StatusOK {
		t.Fatalf("drain: %d (%s)", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rz readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if len(rz.Shards) != 2 || rz.Shards[0].State != "draining" || len(rz.Shards[0].DegradedLayers) == 0 {
		t.Fatalf("/readyz does not show the drained shard: %+v", rz.Shards)
	}
	// Traffic still answers while drained (the drill asserts zero failures
	// at scale; this pins the annotated degraded path).
	body := fmt.Sprintf(`{"image": %s, "seed": 9}`, shardImageJSON(9))
	prec := postPredict(t, srv, body)
	if prec.Code != http.StatusOK {
		t.Fatalf("predict while drained: %d (%s)", prec.Code, prec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(prec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("answer served over a drained shard is not flagged degraded")
	}
}

// TestShardSnapshotTopologyRefused pins the satellite contract end to end: a
// snapshot taken at 2 shards must be refused — loudly, with a fresh-map
// fallback and zero failed requests — when the pool is rebuilt at 4 shards,
// and equally when it is rebuilt unsharded.
func TestShardSnapshotTopologyRefused(t *testing.T) {
	dir := t.TempDir()
	build := func(shards int, stateDir string) *Scheduler {
		eng, _ := shardTestEngine(t)
		cfg := shardTestConfig(shards)
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

	runA := build(2, dir)
	for seed := uint64(1); seed <= 6; seed++ {
		if _, err := runA.Predict(context.Background(), testInput(seed), seed, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Reboot at 4 shards: the snapshot is refused by name, the wear clock
	// does not leak, and the fresh-mapped pool serves without a failure.
	runB := build(4, dir)
	defer runB.Close(context.Background())
	ps, ok := runB.PersistStatus()
	if !ok || ps.Outcome != RestoreFallback {
		t.Fatalf("topology-changed snapshot not refused: %+v", ps)
	}
	if !strings.Contains(ps.RestoreErr, "topology") {
		t.Fatalf("refusal does not name the topology change: %q", ps.RestoreErr)
	}
	if runB.Served() != 0 {
		t.Fatal("refused snapshot leaked its wear clock into the fresh pool")
	}
	for seed := uint64(1); seed <= 12; seed++ {
		if _, err := runB.Predict(context.Background(), testInput(seed), seed, 1); err != nil {
			t.Fatalf("request %d after topology refusal: %v", seed, err)
		}
	}

	// An unsharded reboot refuses the same snapshot the same way.
	eng, _ := shardTestEngine(t)
	cfg := shardTestConfig(0)
	cfg.Workers = 1
	cfg.Manual = true
	cfg.Persist = PersistConfig{Dir: dir}
	runC, err := NewScheduler(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runC.Close(context.Background())
	ps, ok = runC.PersistStatus()
	if !ok || ps.Outcome != RestoreFallback || !strings.Contains(ps.RestoreErr, "topology") {
		t.Fatalf("unsharded pool did not refuse the sharded snapshot: %+v", ps)
	}
}

// TestShardRestartRestoresDrainState: within an unchanged topology the
// snapshot round-trips shard maintenance state — a drained shard stays
// drained across the restart.
func TestShardRestartRestoresDrainState(t *testing.T) {
	dir := t.TempDir()
	build := func() *Scheduler {
		eng, _ := shardTestEngine(t)
		cfg := shardTestConfig(2)
		cfg.Workers = 1
		cfg.Manual = true
		cfg.Persist = PersistConfig{Dir: dir}
		s, err := NewScheduler(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	runA := build()
	if _, err := runA.Predict(context.Background(), testInput(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := runA.ShardPool().Shard(1).Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := runA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	runB := build()
	defer runB.Close(context.Background())
	if ps, ok := runB.PersistStatus(); !ok || ps.Outcome != RestoreRestored {
		t.Fatalf("same-topology restart did not restore: %+v", ps)
	}
	if got := runB.ShardPool().Shard(1).State().String(); got != "draining" {
		t.Fatalf("restored shard 1 state %q, want draining", got)
	}
	if got := runB.ShardPool().Shard(0).State().String(); got != "serving" {
		t.Fatalf("restored shard 0 state %q, want serving", got)
	}
}

// TestShardRepairKeepsCopySeeds: the operator repair of a drained R=2 shard
// re-programs every copy under its own engine's verify bound and seed, so
// copy 1 ends bit for bit where a repair under copy 1's own seed puts it —
// it never replays copy 0's verify draws, and the copies keep independent
// error processes.
func TestShardRepairKeepsCopySeeds(t *testing.T) {
	build := func() *Server {
		net := shardTestNet()
		// Map-time stuck cells and spare rows give the verify pass work
		// whose outcome follows the seed.
		acfg := accel.DefaultConfig(accel.SchemeABN(8))
		acfg.Device.BitsPerCell = 2
		acfg.Device.FailureRate = 0.01
		acfg.SpareRows = 4
		eng, err := accel.Map(net, acfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := shardTestConfig(2)
		cfg.Admin = AdminConfig{Enabled: true}
		srv, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		if rec := postAdmin(t, srv, "/admin/shards", `{"action":"drain","shard":0}`); rec.Code != http.StatusOK {
			t.Fatalf("drain: %d (%s)", rec.Code, rec.Body)
		}
		return srv
	}
	srv, twin := build(), build()
	if rec := postAdmin(t, srv, "/admin/shards", `{"action":"repair","shard":0}`); rec.Code != http.StatusOK {
		t.Fatalf("repair: %d (%s)", rec.Code, rec.Body)
	}
	// The twin repairs each copy directly, under that copy's own engine.
	sh := twin.Scheduler().pool.Shard(0)
	set := sh.Set()
	want := make([]shard.RepairVerify, set.Size())
	for r := 0; r < set.Size(); r++ {
		for _, li := range sh.Layers() {
			rep, err := scrub.Reprogram(set.Engine(r), li)
			if err != nil {
				t.Fatal(err)
			}
			want[r].Cells += rep.Verify.Cells
			want[r].Pulses += rep.Verify.Pulses
			want[r].GaveUp += rep.Verify.GaveUp
		}
	}
	gotShard := srv.Scheduler().pool.Shard(0)
	got := gotShard.Set()
	if got.Engine(1).Config().Seed == got.Engine(0).Config().Seed {
		t.Fatal("copies share one engine seed")
	}
	for r := 0; r < set.Size(); r++ {
		if !reflect.DeepEqual(got.Engine(r).Snapshot(), set.Engine(r).Snapshot()) {
			t.Errorf("copy %d after the admin repair differs from a repair under its own seed", r)
		}
	}
	// The cell state does not depend on the verify draws; the pulse
	// counts and give-ups do, so each copy's accounting must be the one
	// its own seed gives.
	if want[0].Pulses == want[1].Pulses && want[0].GaveUp == want[1].GaveUp {
		t.Fatalf("both copies' repairs read %+v: the fixture cannot tell the seeds apart", want[0])
	}
	if rv := gotShard.Status().RepairVerify; !reflect.DeepEqual(rv, want) {
		t.Errorf("admin repair verify accounting %+v, per-copy repairs under their own seeds %+v", rv, want)
	}
}
