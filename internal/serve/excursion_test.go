package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/scenario"
)

// wreckRows pins every cell of the first k rows of a layer's arrays — damage
// big enough that ECC flags the hit groups as uncorrectable, small enough
// that the per-replica routing window stays below the breaker trip rate. The
// gap between those two thresholds is where the controller's pre-emptive
// maintenance acts before any breaker can.
func wreckRows(t *testing.T, eng *accel.Engine, layer, k int) {
	t.Helper()
	err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
		for _, a := range arrays {
			top := uint8(a.NumLevels() - 1)
			for r := 0; r < k && r < a.Rows; r++ {
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

// excursionTrace is everything the drill records on the deterministic step
// clock; two runs from the same seed must produce equal traces.
type excursionTrace struct {
	Classes   map[uint64]int
	Ticks     []string // "L<level>[:actions]" per synchronous controller tick
	Intervals []time.Duration
	Decisions map[string]uint64
}

// runExcursionDrill is one full pass of the environment-excursion drill. All
// control decisions run on the request-step clock (manual scrub + manual
// controller), so the trace is a pure function of the seeds.
func runExcursionDrill(t *testing.T, tl scenario.Timeline, seeds []uint64, ref map[uint64]int) excursionTrace {
	t.Helper()
	eng := quietEngine(t)
	cfg := replicaTestConfig(2)
	// Conservative monitors: any stuck row corrupts every group read of its
	// array (rate ~1.0), so the default MinReads would trip a breaker on the
	// first damaged MVM and the request-path ladder would self-heal before
	// the controller ever ticks. With both trip points pushed past what the
	// drill's traffic can deliver, the damage stays measurable but
	// un-tripped — the window where only the controller acts.
	cfg.Replicas.Monitor.MinReads = 4096
	cfg.Recovery.Monitor.MinReads = 2000
	cfg.Manual = true
	cfg.Scrub = ScrubConfig{Enabled: true, Interval: 800 * time.Millisecond}
	cfg.Controller = ControllerConfig{
		Enabled:     true,
		TightenRate: 0.01, Hysteresis: 2, Cooldown: 1, MaxLevel: 2,
	}
	srv, err := NewServer(eng, Model{Name: "tiny", InShape: []int{16}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	s := srv.Scheduler()
	set := s.ReplicaSet()
	base := eng.Config().Device

	tr := excursionTrace{Classes: make(map[uint64]int)}
	var mu sync.Mutex
	post := func(seed uint64) {
		rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s, "seed": %d, "top_k": 1}`, imageJSON(seed), seed))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d answered %d — the drill allows zero 5xx", seed, rec.Code)
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := resp.Results[0].Class; got != ref[seed] {
			t.Fatalf("seed %d class %d, want the clean-hardware answer %d", seed, got, ref[seed])
		}
		mu.Lock()
		tr.Classes[seed] = resp.Results[0].Class
		mu.Unlock()
	}
	tick := func() []string {
		acts, err := s.ControllerTick()
		if err != nil {
			t.Fatal(err)
		}
		st, ok := s.ControllerStatus()
		if !ok {
			t.Fatal("controller status missing")
		}
		row := fmt.Sprintf("L%d", st.Level)
		if len(acts) > 0 {
			row += ":" + strings.Join(acts, "+")
		}
		tr.Ticks = append(tr.Ticks, row)
		tr.Intervals = append(tr.Intervals, s.ScrubInterval())
		return acts
	}

	// Phase A — calm baseline under the timeline's opening environment.
	if err := s.ApplyEnv(tl.At(0).Apply(base)); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds[:8] {
		post(seed)
	}
	if err := s.PatrolNow(); err != nil {
		t.Fatal(err)
	}
	if acts := tick(); len(acts) != 0 {
		t.Fatalf("calm baseline produced actions %v", acts)
	}
	if got := s.ScrubInterval(); got != 800*time.Millisecond {
		t.Fatalf("baseline scrub interval %v", got)
	}

	// Phase B — the heatwave peak plus sub-breaker damage on replica 1.
	peak := 0
	for i := 0; i < tl.Steps(); i++ {
		if tl.At(i).TempDeltaK > tl.At(peak).TempDeltaK {
			peak = i
		}
	}
	if err := s.ApplyEnv(tl.At(peak).Apply(base)); err != nil {
		t.Fatal(err)
	}
	wreckRows(t, set.Engine(1), 0, 2)
	for _, seed := range seeds[8:16] {
		post(seed)
	}
	// The drill's load-bearing balance: the sick copy is measurable but no
	// breaker has tripped, so nothing has self-healed yet — the controller
	// must get there first.
	if sick, ok := set.SickestFor(0); !ok || sick != 1 {
		t.Fatalf("SickestFor = (%d, %v), want the damage on replica 1 measured", sick, ok)
	}
	if open := set.OpenLayers(); len(open) != 0 {
		t.Fatalf("replica breakers %v tripped — the drill needs sub-breaker damage", open)
	}

	// Excursion pressure on the primary monitor: a detected burst that
	// carries the window past MinReads at far over the 5% trip rate, so the
	// breaker opens and stays open — sustained pressure until the drill
	// clears it.
	s.Monitor().Observe(map[int]accel.Stats{0: {Detected: 1800}})
	if s.Monitor().OpenCount() == 0 {
		t.Fatal("excursion burst did not trip the primary breaker")
	}
	if acts := tick(); len(acts) != 0 {
		t.Fatalf("hysteresis must hold one pressure tick, got %v", acts)
	}
	acts := tick()
	if len(acts) != 2 || acts[0] != "tighten" || acts[1] != "repair" {
		t.Fatalf("pressure tick actions %v, want [tighten repair]", acts)
	}
	if got := s.ScrubInterval(); got != 400*time.Millisecond {
		t.Fatalf("tightened scrub interval %v, want 400ms", got)
	}
	if _, ok := set.SickestFor(0); ok {
		t.Fatal("replica 1 still measures sick after the controller's repair")
	}
	if err := s.PatrolNow(); err != nil {
		t.Fatal(err)
	}

	// Phase C — the excursion passes: clear the window, cool the arrays,
	// and the controller walks protection back to baseline.
	s.Monitor().Reset(0)
	if err := s.ApplyEnv(tl.At(tl.Steps() - 1).Apply(base)); err != nil {
		t.Fatal(err)
	}
	relaxed := false
	for i := 0; i < 5 && !relaxed; i++ {
		for _, a := range tick() {
			relaxed = relaxed || a == "relax"
		}
	}
	if !relaxed {
		t.Fatal("calm never relaxed the level")
	}
	if got := s.ScrubInterval(); got != 800*time.Millisecond {
		t.Fatalf("scrub interval %v after relax, want 800ms", got)
	}
	for _, seed := range seeds[16:20] {
		post(seed)
	}

	st, ok := s.ControllerStatus()
	if !ok || st.Level != 0 {
		t.Fatalf("controller did not return to baseline: %+v", st)
	}
	tr.Decisions = st.Decisions

	// Phase D — concurrent traffic for the race detector, after the trace's
	// deterministic portion is sealed. Answers stay bit-equal to clean
	// hardware; completion order is free to vary.
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 20 + g; i < len(seeds); i += 3 {
				post(seeds[i])
			}
		}(g)
	}
	wg.Wait()

	if d := eng.DegradedLayers(); len(d) != 0 {
		t.Fatalf("degraded layers %v — adaptation must keep crossbars serving", d)
	}
	if rc := s.RecoveryCounters(); rc.Degrades != 0 || rc.Failovers == 0 {
		t.Fatalf("recovery counters %+v, want zero degrades and a recorded repair", rc)
	}

	// Operator surfacing.
	if v := scrapeMetric(t, srv, `mnn_controller_decisions_total{action="tighten"}`); v == 0 {
		t.Fatal("tighten decision missing from the scrape")
	}
	if v := scrapeMetric(t, srv, `mnn_controller_decisions_total{action="repair"}`); v == 0 {
		t.Fatal("repair decision missing from the scrape")
	}
	if v := scrapeMetric(t, srv, `mnn_replica_detaches_total{replica="1"}`); v == 0 {
		t.Fatal("controller repair recorded no detach on the sick replica")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rz readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Controller == nil || rz.Controller.Level != 0 {
		t.Fatalf("readyz controller row %+v, want level 0", rz.Controller)
	}
	return tr
}

// TestEnvironmentExcursionAdaptation is the environment chaos drill: a
// heatwave timeline raises the operating point while one replica carries
// damage below every breaker threshold. The closed-loop controller must
// tighten the patrol cadence, rotate the sick copy out for repair before its
// breaker trips, and relax back to baseline when the excursion passes — with
// zero 5xx, every answer bit-equal to clean hardware, and the whole run
// replaying bit-identically from the seed.
func TestEnvironmentExcursionAdaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill: skipped in -short")
	}
	tl, err := scenario.Generate("heatwave", 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 32)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	ref := referenceClasses(t, seeds)

	a := runExcursionDrill(t, tl, seeds, ref)
	b := runExcursionDrill(t, tl, seeds, ref)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drill not replayable:\n%+v\nvs\n%+v", a, b)
	}
	if a.Decisions["tighten"] != 1 || a.Decisions["relax"] != 1 || a.Decisions["repair"] != 1 {
		t.Fatalf("decision tallies %+v, want one tighten, one repair, one relax", a.Decisions)
	}
}
