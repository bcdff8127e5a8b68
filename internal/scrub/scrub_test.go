package scrub

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/nn"
)

// testEngine builds a small noiseless engine with spare rows so patrol
// effects are exact and attributable.
func testEngine(t *testing.T, spares int) (*accel.Engine, *nn.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewPCG(21, 21))
	net := &nn.Network{Name: "scrub", InShape: []int{10},
		Layers: []nn.Layer{nn.NewDense(10, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	cfg.Device.PRTN = 0
	cfg.Device.ProgErrFrac = 0
	cfg.Device.SampleFreq = 0
	cfg.Device.GiantProneProb = 0
	cfg.Device.FailureRate = 0
	cfg.SpareRows = spares
	eng, err := accel.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := nn.FromSlice([]float64{0.1, 0.9, 0.3, 0.5, 0.2, 0.7, 0.4, 0.8, 0.6, 0.05}, 10)
	return eng, x
}

// forward runs one noiseless inference and returns the output vector.
func forward(t *testing.T, eng *accel.Engine, x *nn.Tensor) []float64 {
	t.Helper()
	sess := eng.NewSession(1)
	return append([]float64(nil), sess.Forward(x).Data...)
}

// driftLayer drifts a sample of layer cells away from their targets.
func driftLayer(t *testing.T, eng *accel.Engine, layer int) int {
	t.Helper()
	n := 0
	err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
		for _, a := range arrays {
			for r := 0; r < a.Rows; r += 2 {
				for c := 0; c < a.Cols; c += 5 {
					if a.DriftCell(r, c, 1) {
						n++
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPatrolHealsDrift: drifted cells corrupt the noiseless output; one
// patrol pass re-programs them all and restores the clean output exactly.
func TestPatrolHealsDrift(t *testing.T) {
	eng, x := testEngine(t, 0)
	clean := forward(t, eng, x)

	drifted := driftLayer(t, eng, 0)
	if drifted == 0 {
		t.Fatal("drift injection moved nothing")
	}

	sc := New(eng)
	rep, err := sc.PatrolLayer(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsReprogrammed < drifted {
		t.Fatalf("patrol reprogrammed %d cells, injected %d drifted", rep.CellsReprogrammed, drifted)
	}
	if rep.RowsSpared != 0 || rep.RowsUncorrectable != 0 {
		t.Fatalf("drift-only patrol spared %d / gave up on %d rows", rep.RowsSpared, rep.RowsUncorrectable)
	}
	remaining := 0
	if err := eng.WithArrays(0, func(arrays []*crossbar.Array) {
		for _, a := range arrays {
			remaining += a.DriftedCount()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if remaining != 0 {
		t.Fatalf("%d drifted cells survived the patrol", remaining)
	}
	healed := forward(t, eng, x)
	for i := range clean {
		if math.Abs(clean[i]-healed[i]) > 1e-9 {
			t.Fatalf("output %d not restored: %g vs %g", i, healed[i], clean[i])
		}
	}
	tot := sc.Totals()
	if tot.Passes != 1 || tot.CellsReprogrammed != uint64(rep.CellsReprogrammed) {
		t.Fatalf("totals %+v disagree with report %+v", tot, rep)
	}
}

// TestPatrolSparesUncorrectableRows: a row with heavy stuck-at damage the
// code cannot correct is retired onto a spare, after which the output is
// exact again and the damage is gone from the live population.
func TestPatrolSparesUncorrectableRows(t *testing.T) {
	eng, x := testEngine(t, 4)
	clean := forward(t, eng, x)

	// Wreck one row of the first array of layer 0 beyond correction: many
	// stuck cells across the row at an off-target level.
	if err := eng.WithArrays(0, func(arrays []*crossbar.Array) {
		a := arrays[0]
		for c := 0; c < a.Cols; c++ {
			tgt := a.Programmed(2, c)
			lv := uint8(0)
			if tgt == 0 {
				lv = uint8(a.NumLevels() - 1)
			}
			a.SetStuck(2, c, lv)
		}
	}); err != nil {
		t.Fatal(err)
	}

	sc := New(eng)
	rep, err := sc.PatrolLayer(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsSpared == 0 {
		t.Fatalf("no rows spared: %+v", rep)
	}
	if rep.RowsUncorrectable != 0 {
		t.Fatalf("spare pool should have covered the damage: %+v", rep)
	}
	stuck := 0
	if err := eng.WithArrays(0, func(arrays []*crossbar.Array) {
		stuck = arrays[0].StuckCount()
	}); err != nil {
		t.Fatal(err)
	}
	if stuck != 0 {
		t.Fatalf("%d stuck cells remain live after sparing", stuck)
	}
	healed := forward(t, eng, x)
	for i := range clean {
		if math.Abs(clean[i]-healed[i]) > 1e-9 {
			t.Fatalf("output %d not restored after sparing: %g vs %g", i, healed[i], clean[i])
		}
	}
}

// TestPatrolExhaustsSparePool: with no spares, uncorrectable rows are
// reported but left in place — the reactive ladder's problem.
func TestPatrolExhaustsSparePool(t *testing.T) {
	eng, _ := testEngine(t, 0)
	if err := eng.WithArrays(0, func(arrays []*crossbar.Array) {
		a := arrays[0]
		for c := 0; c < a.Cols; c++ {
			tgt := a.Programmed(2, c)
			lv := uint8(0)
			if tgt == 0 {
				lv = uint8(a.NumLevels() - 1)
			}
			a.SetStuck(2, c, lv)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sc := New(eng)
	rep, err := sc.PatrolLayer(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsSpared != 0 || rep.RowsUncorrectable == 0 {
		t.Fatalf("spare-less patrol: %+v", rep)
	}
}

// TestPatrolCleanEngineIsNoOp: patrolling healthy arrays touches nothing.
func TestPatrolCleanEngineIsNoOp(t *testing.T) {
	eng, _ := testEngine(t, 2)
	sc := New(eng)
	reps, err := sc.PatrolAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if rep.CellsReprogrammed != 0 || rep.RowsSpared != 0 || rep.RowsRepaired != 0 {
			t.Fatalf("clean patrol did work: %+v", rep)
		}
		if rep.RowsPatrolled == 0 {
			t.Fatalf("layer %d patrolled no rows", rep.Layer)
		}
	}
}

// TestNextRotatesDeterministically: Next covers every layer in order and
// wraps around; repeated runs over identically-prepared engines agree.
func TestNextRotatesDeterministically(t *testing.T) {
	run := func() []Report {
		eng, _ := testEngine(t, 2)
		driftLayer(t, eng, 0)
		driftLayer(t, eng, 2)
		sc := New(eng)
		var reps []Report
		for i := 0; i < 4; i++ {
			rep, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	a, b := run(), run()
	wantLayers := []int{0, 2, 0, 2}
	for i, rep := range a {
		if rep.Layer != wantLayers[i] {
			t.Fatalf("rotation order %v", a)
		}
		if !reflect.DeepEqual(rep, b[i]) {
			t.Fatalf("pass %d not deterministic: %+v vs %+v", i, rep, b[i])
		}
	}
	if a[0].Pass != 1 || a[2].Pass != 2 {
		t.Fatalf("pass counters wrong: %+v", a)
	}
}
