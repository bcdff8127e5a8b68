package expt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/stats"
)

func scenarioSweepConfig() ScenarioSweepConfig {
	return ScenarioSweepConfig{
		Devices:   []string{"hpca2018-rram"},
		Scheme:    accel.SchemeABN(8),
		Scenarios: []string{"calm", "heatwave"},
		Images:    10,
		Seed:      7,
		Steps:     2,
		Lifetime: fault.LifetimeParams{
			Steps:        2,
			StuckPerStep: 0.002,
			LRSFrac:      1.0,
			DriftEvery:   1,
			DriftRate:    0.002,
			DriftDelta:   1,
		},
		SpareRows: 4,
	}
}

// TestScenarioSweepDeterministic: every point of the matrix — miss,
// availability, controller decisions, patrol tallies — is a pure function of
// (workload, config); two back-to-back runs must be bit-identical.
func TestScenarioSweepDeterministic(t *testing.T) {
	w := tinyWorkload(t)
	cfg := scenarioSweepConfig()
	a, err := RunScenarioSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenarioSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scenario sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	// Both arms of both cells cover every step, in order.
	if want := len(cfg.Devices) * len(cfg.Scenarios) * 2 * (cfg.Steps + 1); len(a) != want {
		t.Fatalf("points = %d, want %d", len(a), want)
	}
	for _, p := range a {
		if p.ServeErrors != 0 {
			t.Fatalf("%s/%s/%s step %d served %d errors — the 5xx budget is zero",
				p.Device, p.Scenario, p.Arm, p.Step, p.ServeErrors)
		}
		if p.Arm == ArmStatic && (p.Level != 0 || p.PatrolPasses != 1) {
			t.Fatalf("static arm must stay at level 0 with one pass per step: %+v", p)
		}
		if p.Arm == ArmAdaptive && p.PatrolPasses != 1<<p.Level {
			t.Fatalf("adaptive arm passes %d at level %d, want %d", p.PatrolPasses, p.Level, 1<<p.Level)
		}
	}
}

// TestScenarioVerdicts folds synthetic points so each verdict branch is
// pinned: wins needs not-worse on both axes and strictly better on one.
func TestScenarioVerdicts(t *testing.T) {
	miss := func(n, total int) stats.Counter {
		var c stats.Counter
		for i := 0; i < total; i++ {
			c.AddOutcome(i < n)
		}
		return c
	}
	pts := []ScenarioPoint{
		// Cell A: adaptive strictly better on miss, equal availability → WINS.
		{Device: "d", Scenario: "a", Arm: ArmStatic, Step: 0, Miss: miss(4, 10), Availability: 1},
		{Device: "d", Scenario: "a", Arm: ArmAdaptive, Step: 0, Miss: miss(2, 10), Availability: 1},
		// Cell B: identical arms → ties.
		{Device: "d", Scenario: "b", Arm: ArmStatic, Step: 0, Miss: miss(1, 10), Availability: 1},
		{Device: "d", Scenario: "b", Arm: ArmAdaptive, Step: 0, Miss: miss(1, 10), Availability: 1},
		// Cell C: adaptive more accurate but less available → not a win.
		{Device: "d", Scenario: "c", Arm: ArmStatic, Step: 0, Miss: miss(4, 10), Availability: 1},
		{Device: "d", Scenario: "c", Arm: ArmAdaptive, Step: 0, Miss: miss(2, 10), Availability: 0.9},
	}
	vs := Verdicts(pts)
	if len(vs) != 3 {
		t.Fatalf("verdicts = %d, want 3", len(vs))
	}
	if !vs[0].AdaptiveWins {
		t.Errorf("cell a: strict miss improvement must win: %+v", vs[0])
	}
	if vs[1].AdaptiveWins {
		t.Errorf("cell b: a tie is not a win: %+v", vs[1])
	}
	if vs[2].AdaptiveWins {
		t.Errorf("cell c: trading availability away is not a win: %+v", vs[2])
	}
}

// TestScenarioSweepRendering: table and CSV writers cover every point.
func TestScenarioSweepRendering(t *testing.T) {
	w := tinyWorkload(t)
	cfg := scenarioSweepConfig()
	cfg.Scenarios = []string{"wear-spike"}
	cfg.Steps = 1
	points, err := RunScenarioSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	RenderScenarios(&tbl, points)
	for _, want := range []string{"environment-adaptation matrix", "service-life verdicts", "wear-spike"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, tbl.String())
		}
	}
	var csvBuf bytes.Buffer
	if err := WriteScenariosCSV(&csvBuf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(csvBuf.String()), "\n")
	if want := len(points); lines != want {
		t.Fatalf("csv rows = %d, want %d", lines, want)
	}
	checkGolden(t, "scenarios.txt", tbl.Bytes())
	checkGolden(t, "scenarios.csv", csvBuf.Bytes())
}
