package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/accel"
)

// coreConfig is a hysteresis setup with explicit small constants so the
// tick arithmetic in these tests is readable.
func coreConfig() ControllerConfig {
	return ControllerConfig{
		Enabled:     true,
		TightenRate: 0.01,
		Hysteresis:  3, Cooldown: 2, MaxLevel: 3,
	}.withDefaults()
}

// TestControllerCoreNoFlapping: a rate oscillating across the tighten
// threshold every tick must never move the level — each flip resets the
// streak before it reaches the hysteresis bound.
func TestControllerCoreNoFlapping(t *testing.T) {
	core := controllerCore{cfg: coreConfig()}
	for i := 0; i < 100; i++ {
		rate := 0.0
		if i%2 == 0 {
			rate = 0.02 // above TightenRate
		}
		level, tightened, relaxed := core.step(ctlObservation{rate: rate})
		if level != 0 || tightened || relaxed {
			t.Fatalf("tick %d: oscillating signal moved the level to %d", i, level)
		}
	}
	// A two-tick burst followed by a deadband tick must not tighten either:
	// the deadband resets both streaks.
	core = controllerCore{cfg: coreConfig()}
	seq := []float64{0.02, 0.02, 0.005, 0.02, 0.02, 0.005}
	for i, rate := range seq {
		if level, _, _ := core.step(ctlObservation{rate: rate}); level != 0 {
			t.Fatalf("tick %d: sub-hysteresis bursts moved the level to %d", i, level)
		}
	}
}

// TestControllerCoreTightenRelaxCycle: sustained pressure walks the level up
// to MaxLevel with the cooldown spacing each change; sustained calm walks it
// back to zero and no further.
func TestControllerCoreTightenRelaxCycle(t *testing.T) {
	core := controllerCore{cfg: coreConfig()}
	pressure := ctlObservation{rate: 0.02}
	calm := ctlObservation{}

	var changes []int
	for i := 0; i < 40; i++ {
		level, tightened, _ := core.step(pressure)
		if tightened {
			changes = append(changes, i)
			if level != len(changes) {
				t.Fatalf("tighten %d landed on level %d", len(changes), level)
			}
		}
	}
	if core.level != core.cfg.MaxLevel {
		t.Fatalf("sustained pressure stalled at level %d", core.level)
	}
	for i := 1; i < len(changes); i++ {
		if gap := changes[i] - changes[i-1]; gap < core.cfg.Cooldown+1 {
			t.Fatalf("level changes %v spaced %d ticks, cooldown %d demands more", changes, gap, core.cfg.Cooldown)
		}
	}

	relaxes := 0
	for i := 0; i < 60; i++ {
		level, _, relaxed := core.step(calm)
		if relaxed {
			relaxes++
		}
		if level < 0 {
			t.Fatal("level went negative")
		}
	}
	if core.level != 0 || relaxes != core.cfg.MaxLevel {
		t.Fatalf("calm left level %d after %d relaxes", core.level, relaxes)
	}
}

// TestControllerCoreBreakerIsPressure: an open breaker counts as pressure
// regardless of the measured rate.
func TestControllerCoreBreakerIsPressure(t *testing.T) {
	core := controllerCore{cfg: coreConfig()}
	obs := ctlObservation{rate: 0, openBreakers: 1}
	tightened := false
	for i := 0; i < 10 && !tightened; i++ {
		_, tightened, _ = core.step(obs)
	}
	if !tightened {
		t.Fatal("open breaker never tightened the level")
	}
}

// TestControllerVoteFor checks the level → vote-threshold mapping.
func TestControllerVoteFor(t *testing.T) {
	cases := []struct {
		baseVote, level, want int
	}{
		{3, 0, 3}, {3, 1, 2}, {3, 2, 1}, {3, 3, 1}, // configured drops per level, floor 1
		{0, 0, 0}, {0, 1, 0}, {0, 2, 1}, {0, 3, 1}, // off switches on at level 2
	}
	for _, c := range cases {
		ctl := &controller{baseVote: c.baseVote}
		if got := ctl.voteFor(c.level); got != c.want {
			t.Errorf("voteFor(base=%d, level=%d) = %d, want %d", c.baseVote, c.level, got, c.want)
		}
	}
}

// TestControllerManualActuation drives a manual controller through a
// tighten/relax cycle against the live scheduler: measured pressure below
// the breaker trip point must halve the patrol cadence after the hysteresis
// window, and measured calm must restore it.
func TestControllerManualActuation(t *testing.T) {
	eng := quietEngine(t)
	base := 800 * time.Millisecond
	s, err := NewScheduler(eng, Config{
		Workers:  1,
		Manual:   true,
		Recovery: recoveryConfig(1),
		Scrub:    ScrubConfig{Enabled: true, Interval: base},
		Controller: ControllerConfig{
			Enabled:     true,
			TightenRate: 0.01, Hysteresis: 2, Cooldown: 1, MaxLevel: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	// 2% detected: above the tighten threshold, below the 5% breaker trip.
	pressure := func() {
		s.Monitor().Observe(map[int]accel.Stats{0: {Clean: 98, Detected: 2}})
	}
	pressure()
	if acts, err := s.ControllerTick(); err != nil || len(acts) != 0 {
		t.Fatalf("tick 1: acts=%v err=%v, hysteresis should hold", acts, err)
	}
	pressure()
	acts, err := s.ControllerTick()
	if err != nil || len(acts) != 1 || acts[0] != "tighten" {
		t.Fatalf("tick 2: acts=%v err=%v, want [tighten]", acts, err)
	}
	if got := s.ScrubInterval(); got != base/2 {
		t.Fatalf("scrub interval %v after tighten, want %v", got, base/2)
	}

	// Clear the window: rate drops to 0, which is calm. Cooldown eats one
	// tick, then two calm ticks relax.
	s.Monitor().Reset(0)
	relaxed := false
	for i := 0; i < 5 && !relaxed; i++ {
		acts, err := s.ControllerTick()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range acts {
			relaxed = relaxed || a == "relax"
		}
	}
	if !relaxed {
		t.Fatal("calm window never relaxed the level")
	}
	if got := s.ScrubInterval(); got != base {
		t.Fatalf("scrub interval %v after relax, want base %v", got, base)
	}

	st, ok := s.ControllerStatus()
	if !ok || st.Level != 0 || st.Decisions["tighten"] != 1 || st.Decisions["relax"] != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.VoteThreshold != -1 {
		t.Fatalf("vote threshold %d without a replica set, want -1", st.VoteThreshold)
	}
}

// TestControllerSeesShardReplicaBreakers: an open per-replica routing
// breaker is pressure whatever the pool's shape. Replica 1's breaker on
// layer 0 must tighten the level and then be repaired, sharded or not.
func TestControllerSeesShardReplicaBreakers(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := quietEngine4(t)
			cfg := shardTestConfig(shards)
			cfg.Workers = 1
			cfg.Manual = true
			cfg.Controller = ControllerConfig{Enabled: true}
			s, err := NewScheduler(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background())
			set := s.ReplicaSet()
			if shards > 0 {
				set = s.ShardPool().Owner(0).Set()
			}
			set.Monitor(1).Observe(map[int]accel.Stats{0: {Clean: 10, Detected: 10}})
			var acts []string
			for i := 0; i < 3; i++ {
				a, err := s.ControllerTick()
				if err != nil {
					t.Fatal(err)
				}
				acts = append(acts, a...)
			}
			if fmt.Sprint(acts) != "[tighten repair]" {
				t.Fatalf("actions %v, want [tighten repair]", acts)
			}
		})
	}
}

// TestControllerTickRequiresManual: background controllers own their cadence.
func TestControllerTickRequiresManual(t *testing.T) {
	eng := quietEngine(t)
	s, err := NewScheduler(eng, Config{
		Workers:    1,
		Recovery:   recoveryConfig(1),
		Controller: ControllerConfig{Enabled: true, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if _, err := s.ControllerTick(); err == nil {
		t.Fatal("ControllerTick on a background controller must error")
	}

	s2, err := NewScheduler(quietEngine(t), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	if _, err := s2.ControllerTick(); err == nil {
		t.Fatal("ControllerTick with the controller disabled must error")
	}
	if _, ok := s2.ControllerStatus(); ok {
		t.Fatal("ControllerStatus must report disabled")
	}
}

// TestControllerRequiresRecovery: the config cross-check.
func TestControllerRequiresRecovery(t *testing.T) {
	err := Config{Controller: ControllerConfig{Enabled: true}}.Validate()
	if err == nil || !strings.Contains(err.Error(), "Recovery") {
		t.Fatalf("controller without recovery validated: %v", err)
	}
}

// TestControllerBackgroundSmoke runs the real decision goroutine at a fast
// cadence under live traffic — the -race exercise for the sensor and
// actuator paths.
func TestControllerBackgroundSmoke(t *testing.T) {
	eng := quietEngine(t)
	s, err := NewScheduler(eng, Config{
		Workers:    2,
		Recovery:   recoveryConfig(1),
		Scrub:      ScrubConfig{Enabled: true, Interval: time.Millisecond},
		Controller: ControllerConfig{Enabled: true, Interval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Predict(context.Background(), testInput(uint64(i)), uint64(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		st, ok := s.ControllerStatus()
		return ok && st.Ticks > 0
	})
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsExposeDeviceAndController: the build-info gauge carries the
// device label and the controller series appear once the controller is on.
func TestMetricsExposeDeviceAndController(t *testing.T) {
	srv := testServer(t, 0, Config{
		Workers:    1,
		Manual:     true,
		Recovery:   recoveryConfig(1),
		Controller: ControllerConfig{Enabled: true},
	})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`mnn_build_info{device="hpca2018-rram",scheme="ABN-8"} 1`,
		"mnn_controller_level 0",
		"mnn_controller_ticks_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
}
