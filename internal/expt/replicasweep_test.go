package expt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
)

func replicaSweepConfig() ReplicaSweepConfig {
	return ReplicaSweepConfig{
		Device:   defaultDevice(2),
		Scheme:   accel.SchemeABN(8),
		Images:   20,
		Seed:     7,
		Replicas: []int{1, 2},
		// A stuck-heavy campaign: drift can be remapped away, stuck cells
		// are what force the spatial-vs-software choice this sweep studies.
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

// TestReplicaSweepDeterministic: every point of the R-sweep — accuracy,
// availability, ladder counters, energy — is a pure function of
// (workload, config); two back-to-back runs must be identical.
func TestReplicaSweepDeterministic(t *testing.T) {
	w := tinyWorkload(t)
	cfg := replicaSweepConfig()
	a, err := RunReplicaSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplicaSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replica sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestReplicaSweepRedundancyHoldsAvailability is the headline claim: under
// a campaign that wears the primary copy, the replicated pool keeps every
// answer on crossbars (availability 1.0, zero degrades, zero 5xx) by
// failing over spatially, while paying an honest 2x area bill.
func TestReplicaSweepRedundancyHoldsAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("replica sweep: skipped in -short")
	}
	w := tinyWorkload(t)
	cfg := replicaSweepConfig()
	cfg.Lifetime.StuckPerStep = 0.02 // age the primary hard
	points, err := RunReplicaSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]ReplicaPoint{}
	for _, p := range points {
		if p.ServeErrors != 0 {
			t.Fatalf("R=%d step %d served %d errors — the 5xx budget is zero", p.Replicas, p.Step, p.ServeErrors)
		}
		last[p.Replicas] = p
	}
	r1, r2 := last[1], last[2]
	if r2.Availability != 1.0 || r2.Degrades != 0 || r2.DegradedLayers != 0 {
		t.Fatalf("R=2 should hold full crossbar availability: %+v", r2)
	}
	if r2.Failovers == 0 {
		t.Fatal("R=2 absorbed the campaign without a single spatial failover — damage never landed")
	}
	// The same damage with no sibling must cost the single copy something:
	// degraded layers (the usual outcome) or at least ladder degrades.
	if r1.DegradedLayers == 0 && r1.Degrades == 0 {
		t.Fatalf("R=1 survived a campaign meant to overwhelm it: %+v", r1)
	}
	if got, want := r2.AreaMM2, 2*r1.AreaMM2; got != want {
		t.Fatalf("R=2 area %g, want the honest 2x bill %g", got, want)
	}
}

// TestReplicaSweepRendering: table and CSV writers cover every (R, step).
func TestReplicaSweepRendering(t *testing.T) {
	w := tinyWorkload(t)
	cfg := replicaSweepConfig()
	cfg.Lifetime.Steps = 1
	cfg.Images = 10
	points, err := RunReplicaSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	RenderReplicas(&tbl, points)
	for _, want := range []string{"spatial-redundancy sweep", "hardware bill", "failovers"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, tbl.String())
		}
	}
	var csvBuf bytes.Buffer
	if err := WriteReplicasCSV(&csvBuf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(csvBuf.String()), "\n")
	if want := len(points); lines != want {
		t.Fatalf("csv rows = %d, want %d", lines, want)
	}
	checkGolden(t, "replicas.txt", tbl.Bytes())
	checkGolden(t, "replicas.csv", csvBuf.Bytes())
}

// TestRenderReplicasEnergyAgainstHealthyCopy: the bill's "energy x" divides
// each R's last-step energy per image by R=1's at step 0. R=1's own last
// step is no base: once its layers fall to software it reads almost no
// crossbar energy, and dividing by that read R=2 as hundreds of times R=1.
func TestRenderReplicasEnergyAgainstHealthyCopy(t *testing.T) {
	points := []ReplicaPoint{
		{Workload: "w", Replicas: 1, Step: 0, Availability: 1, AreaMM2: 1, EnergyPerImageJ: 1.0e-6},
		{Workload: "w", Replicas: 1, Step: 1, Availability: 0, AreaMM2: 1, EnergyPerImageJ: 2.0e-9},
		{Workload: "w", Replicas: 2, Step: 0, Availability: 1, AreaMM2: 2, EnergyPerImageJ: 1.0e-6},
		{Workload: "w", Replicas: 2, Step: 1, Availability: 1, AreaMM2: 2, EnergyPerImageJ: 1.5e-6},
	}
	var buf bytes.Buffer
	RenderReplicas(&buf, points)
	out := buf.String()
	for _, want := range []string{
		"1          1.000          0.0        2.000e-09      1.00x      0.00x",
		"2          2.000          0.0        1.500e-06      2.00x      1.50x",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("bill missing row %q:\n%s", want, out)
		}
	}
}
