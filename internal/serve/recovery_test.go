package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/nn"
)

// quietEngine maps a network with every stochastic noise source disabled,
// so any ECU activity in these tests is attributable to injected faults.
func quietEngine(t testing.TB) *accel.Engine {
	return quietEngineWith(t, nil)
}

// quietEngineWith lets a test adjust the quiet config (e.g. spare rows)
// before mapping.
func quietEngineWith(t testing.TB, adjust func(*accel.Config)) *accel.Engine {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	net := &nn.Network{Name: "tiny", InShape: []int{16},
		Layers: []nn.Layer{nn.NewDense(16, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	return quietMap(t, net, adjust)
}

// quietEngine4 is shardTestEngine's four-MVM-layer network mapped quiet, so
// a 2-shard pool puts layers 0 and 2 in one fault domain.
func quietEngine4(t testing.TB) *accel.Engine {
	return quietMap(t, shardTestNet(), nil)
}

// quietMap maps net with every stochastic noise source disabled.
func quietMap(t testing.TB, net *nn.Network, adjust func(*accel.Config)) *accel.Engine {
	t.Helper()
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	cfg.Device.PRTN = 0
	cfg.Device.ProgErrFrac = 0
	cfg.Device.SampleFreq = 0
	cfg.Device.GiantProneProb = 0
	cfg.Device.FailureRate = 0
	if adjust != nil {
		adjust(&cfg)
	}
	eng, err := accel.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// recoveryConfig is a deterministic ladder setup: tiny windows so a single
// request's reads can trip the breaker, no backoff sleeps.
func recoveryConfig(maxRemaps int) RecoveryConfig {
	return RecoveryConfig{
		Enabled:       true,
		Monitor:       fault.MonitorConfig{Window: 4096, MinReads: 8, TripRate: 0.05},
		RetryAttempts: 2,
		RetryBackoff:  -1,
		MaxRemaps:     maxRemaps,
	}
}

// wreckLayer pins every cell of a layer at the top level — a persistent
// fault no retry can clear.
func wreckLayer(t *testing.T, eng *accel.Engine, layer int) {
	t.Helper()
	err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
		for _, a := range arrays {
			top := uint8(a.NumLevels() - 1)
			for r := 0; r < a.Rows; r++ {
				for c := 0; c < a.Cols; c++ {
					a.SetStuck(r, c, top)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLadderRetryClearsTransientTrip: a breaker opened by a transient burst
// closes on the first clean retry — no remap, no degradation.
func TestLadderRetryClearsTransientTrip(t *testing.T) {
	eng := quietEngine(t)
	s, err := NewScheduler(eng, Config{Workers: 1, Recovery: recoveryConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	// Simulate a transient burst: force the breaker open by feeding the
	// monitor fake heavily-detected traffic on layer 0. The hardware
	// itself is healthy, so the ladder's retry comes back clean.
	s.Monitor().Observe(map[int]accel.Stats{0: {Clean: 10, Detected: 10}})
	if s.Monitor().State(0) != fault.BreakerOpen {
		t.Fatal("breaker did not open on fake burst")
	}

	p, err := s.Predict(context.Background(), testInput(1), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.LadderRetries != 1 {
		t.Fatalf("ladder retries %d, want 1 (first retry is clean)", p.LadderRetries)
	}
	if len(p.Remapped) != 0 || len(p.Degraded) != 0 {
		t.Fatalf("transient trip escalated: %+v", p)
	}
	if s.Monitor().State(0) != fault.BreakerClosed {
		t.Fatal("clean retry did not close the breaker")
	}
	if got := s.RecoveryCounters(); got.Retries != 1 || got.Remaps != 0 || got.Degrades != 0 {
		t.Fatalf("counters %+v", got)
	}
	if eng.RemapCount(0) != 0 {
		t.Fatal("retry rung must not remap")
	}
}

// ladderTopology is one pool shape the per-layer ladder must treat alike:
// the bare engine, or a 2-shard pool of one copy per shard over a 4-layer
// net. In both, the wrecked layer shares its fault domain with a sibling
// that must come out of the ladder untouched.
type ladderTopology struct {
	name   string
	engine func(testing.TB) *accel.Engine
	shards int
}

var ladderTopologies = []ladderTopology{
	{name: "bare", engine: quietEngine},
	{name: "shards=2", engine: quietEngine4, shards: 2},
}

// TestLadderRemapHealsPersistentFault: a wrecked layer trips the breaker,
// survives the retries, and is re-programmed onto spares; traffic then
// flows clean on fresh hardware. Only the tripped layer is remapped.
func TestLadderRemapHealsPersistentFault(t *testing.T) {
	for _, tp := range ladderTopologies {
		t.Run(tp.name, func(t *testing.T) {
			eng := tp.engine(t)
			s, err := NewScheduler(eng, Config{Workers: 1, Recovery: recoveryConfig(1), Shards: tp.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background())

			const layer, sibling = 2, 0
			wreckLayer(t, eng, layer)
			p, err := s.Predict(context.Background(), testInput(1), 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p.LadderRetries != 2 {
				t.Fatalf("ladder retries %d, want both attempts consumed", p.LadderRetries)
			}
			if len(p.Remapped) != 1 || p.Remapped[0] != layer {
				t.Fatalf("remapped %v, want [%d]", p.Remapped, layer)
			}
			if len(p.Degraded) != 0 {
				t.Fatalf("remap rung degraded the layer: %v", p.Degraded)
			}
			if p.Seed != 7 {
				t.Fatalf("final evaluation must use the request seed, got %d", p.Seed)
			}
			if eng.RemapCount(layer) != 1 || eng.Fallback(layer) {
				t.Fatalf("engine state after remap: remaps=%d fallback=%v", eng.RemapCount(layer), eng.Fallback(layer))
			}
			if eng.RemapCount(sibling) != 0 || eng.Fallback(sibling) {
				t.Fatalf("sibling layer %d touched: remaps=%d fallback=%v", sibling, eng.RemapCount(sibling), eng.Fallback(sibling))
			}
			if got := s.RecoveryCounters(); got.Remaps != 1 || got.Degrades != 0 {
				t.Fatalf("counters %+v", got)
			}
			// Fresh hardware serves clean without ladder involvement.
			p2, err := s.Predict(context.Background(), testInput(2), 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p2.LadderRetries != 0 || p2.Stats.Detected != 0 {
				t.Fatalf("post-remap request not clean: %+v", p2)
			}
		})
	}
}

// TestLadderDegradesWhenRemapBudgetSpent: with remapping forbidden, a
// persistent fault sends the layer to the software fallback; the answer is
// still served, flagged degraded. Only the tripped layer leaves the
// crossbars.
func TestLadderDegradesWhenRemapBudgetSpent(t *testing.T) {
	for _, tp := range ladderTopologies {
		t.Run(tp.name, func(t *testing.T) {
			eng := tp.engine(t)
			s, err := NewScheduler(eng, Config{Workers: 1, Recovery: recoveryConfig(-1), Shards: tp.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background())

			const layer, sibling = 0, 2
			wreckLayer(t, eng, layer)
			p, err := s.Predict(context.Background(), testInput(1), 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Degraded) != 1 || p.Degraded[0] != layer {
				t.Fatalf("degraded %v, want [%d]", p.Degraded, layer)
			}
			if len(p.Remapped) != 0 || eng.RemapCount(layer) != 0 {
				t.Fatal("MaxRemaps<0 must never remap")
			}
			if !eng.Fallback(layer) {
				t.Fatal("layer not in software fallback")
			}
			if eng.RemapCount(sibling) != 0 || eng.Fallback(sibling) {
				t.Fatalf("sibling layer %d touched: remaps=%d fallback=%v", sibling, eng.RemapCount(sibling), eng.Fallback(sibling))
			}
			if p.Stats.SoftMVMs == 0 {
				t.Fatal("degraded answer shows no soft MVMs")
			}
			if got := s.RecoveryCounters(); got.Degrades != 1 {
				t.Fatalf("counters %+v", got)
			}
			// The wrecked crossbars are out of the serving path: later requests
			// stay degraded but never see detected errors.
			p2, err := s.Predict(context.Background(), testInput(2), 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p2.Stats.Detected != 0 || p2.Stats.SoftMVMs == 0 || len(p2.Degraded) != 1 {
				t.Fatalf("steady-state degraded request: %+v", p2)
			}
		})
	}
}

// TestRecoveryDisabledIsPure: without recovery, wrecked hardware changes
// answers but triggers no ladder machinery — the legacy contract.
func TestRecoveryDisabledIsPure(t *testing.T) {
	eng := quietEngine(t)
	s, err := NewScheduler(eng, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	wreckLayer(t, eng, 0)
	p, err := s.Predict(context.Background(), testInput(1), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.LadderRetries != 0 || p.Remapped != nil || p.Degraded != nil {
		t.Fatalf("disabled recovery acted: %+v", p)
	}
	if eng.RemapCount(0) != 0 || eng.Fallback(0) {
		t.Fatal("engine mutated with recovery disabled")
	}
}

// TestChaosCampaignZeroServerErrors is the end-to-end chaos drill: a
// lifetime fault campaign wrecks layers mid-serving while HTTP traffic
// flows. Every admitted request must be answered 200 — degradation is
// surfaced via response metadata and metrics, never as a 5xx.
func TestChaosCampaignZeroServerErrors(t *testing.T) {
	eng := quietEngine(t)
	cfg := Config{Workers: 2, QueueDepth: 32, Recovery: recoveryConfig(1)}
	srv, err := NewServer(eng, Model{Name: "tiny", InShape: []int{16}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// A deterministic campaign: step 1 wrecks layer 0 outright, step 2
	// piles drift onto layer 2.
	camp := fault.Campaign{Seed: 42, Events: []fault.Event{
		{Step: 1, Layer: 0, Kind: fault.StuckLRS, Rate: 1.0},
		{Step: 2, Layer: 2, Kind: fault.StuckLRS, Rate: 0.5},
		{Step: 2, Layer: 2, Kind: fault.Drift, Rate: 0.5, Drift: -1},
	}}
	runner, err := fault.NewRunner(camp, eng)
	if err != nil {
		t.Fatal(err)
	}

	post := func(seed uint64) predictResponse {
		t.Helper()
		body := fmt.Sprintf(`{"image": %s, "seed": %d}`, imageJSON(seed), seed)
		rec := postPredict(t, srv, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("request seed %d: status %d (%s) — chaos must not cause server errors",
				seed, rec.Code, rec.Body)
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Healthy warm-up.
	for seed := uint64(1); seed <= 3; seed++ {
		if resp := post(seed); resp.Degraded {
			t.Fatalf("degraded before any fault: %+v", resp)
		}
	}

	// Lifetime step 1: layer 0 dies. Serving continues.
	if _, err := runner.Advance(1); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(10); seed < 20; seed++ {
		post(seed)
	}
	// Lifetime step 2: layer 2 decays too.
	if _, err := runner.Advance(2); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(20); seed < 30; seed++ {
		post(seed)
	}

	sched := srv.Scheduler()
	counters := sched.RecoveryCounters()
	if counters.Retries == 0 {
		t.Fatal("campaign never exercised the retry rung")
	}
	if counters.Remaps+counters.Degrades == 0 {
		t.Fatal("campaign never escalated past retries")
	}
	trips := uint64(0)
	for _, h := range sched.Health() {
		trips += h.Trips
	}
	if trips == 0 {
		t.Fatal("no breaker ever tripped during the campaign")
	}

	// The drill is visible to operators: scrape the recovery series.
	if got := scrapeMetric(t, srv, `mnn_recovery_actions_total{rung="retry"}`); got == 0 {
		t.Fatal("retry transitions missing from metrics")
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz during degraded-but-serving state: %d", rec.Code)
	}
	var ready readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready {
		t.Fatalf("instance must stay ready while the ladder holds: %+v", ready)
	}
}
