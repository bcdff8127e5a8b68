package accel

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/nn"
)

func remapTestEngine(t *testing.T) (*Engine, *nn.Network, *nn.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewPCG(21, 21))
	net := &nn.Network{Name: "remap", InShape: []int{10},
		Layers: []nn.Layer{nn.NewDense(10, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := quietConfig(SchemeABN(8), 2)
	eng, err := Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := nn.FromSlice([]float64{0.1, 0.9, 0.3, 0.5, 0.2, 0.7, 0.4, 0.8, 0.6, 0.05}, 10)
	return eng, net, x
}

// saturateLayer pins every cell of a layer's arrays to the top level —
// a catastrophic wear-out no ECU can hide.
func saturateLayer(t *testing.T, eng *Engine, layer int) {
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

// TestRemapClearsInjectedFaults: online faults corrupt the layer's output
// and light up the ECU; re-programming onto spares restores exactness.
func TestRemapClearsInjectedFaults(t *testing.T) {
	eng, _, x := remapTestEngine(t)
	sess := eng.NewSession(1)
	clean := append([]float64(nil), sess.Forward(x).Data...)
	sess.DrainStats()

	saturateLayer(t, eng, 0)
	faulted := sess.Forward(x)
	st := sess.DrainStats()
	if st.Detected == 0 && st.Corrected == 0 {
		t.Fatal("saturating a layer produced no ECU activity")
	}
	diverged := false
	for i := range clean {
		if math.Abs(clean[i]-faulted.Data[i]) > 1e-9 {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("saturating a layer did not change its output")
	}

	if err := eng.Remap(0); err != nil {
		t.Fatal(err)
	}
	if eng.RemapCount(0) != 1 {
		t.Fatalf("remap count %d, want 1", eng.RemapCount(0))
	}
	healed := sess.Forward(x)
	st = sess.DrainStats()
	for i := range clean {
		if math.Abs(clean[i]-healed.Data[i]) > 1e-9 {
			t.Fatalf("output %d after remap: %g, want %g", i, healed.Data[i], clean[i])
		}
	}
	if st.Detected != 0 {
		t.Fatalf("%d detected reads after remap on quiet hardware", st.Detected)
	}
}

// TestRemapDeterministicByEpoch: the remap seed is a pure function of
// (layer, epoch), so two engines that take the same recovery path end up
// with identical hardware.
func TestRemapDeterministicByEpoch(t *testing.T) {
	engA, _, x := remapTestEngine(t)
	engB, _, _ := remapTestEngine(t)
	for _, eng := range []*Engine{engA, engB} {
		if err := eng.Remap(0); err != nil {
			t.Fatal(err)
		}
		if err := eng.Remap(2); err != nil {
			t.Fatal(err)
		}
	}
	ya := engA.NewSession(3).Forward(x)
	yb := engB.NewSession(3).Forward(x)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatalf("remapped engines diverge at output %d: %g vs %g", i, ya.Data[i], yb.Data[i])
		}
	}
}

// TestFallbackServesSoftware: a degraded layer answers from the digital
// fixed-point path — counted in SoftMVMs, immune to hardware faults, and
// within quantization distance of the float reference.
func TestFallbackServesSoftware(t *testing.T) {
	eng, net, x := remapTestEngine(t)
	saturateLayer(t, eng, 0)
	saturateLayer(t, eng, 2)
	if err := eng.SetFallback(0, true); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFallback(2, true); err != nil {
		t.Fatal(err)
	}
	if got := eng.DegradedLayers(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("degraded layers %v, want [0 2]", got)
	}

	sess := eng.NewSession(1)
	soft := net.Forward(x)
	hard := sess.Forward(x)
	for i := range soft.Data {
		if math.Abs(soft.Data[i]-hard.Data[i]) > 0.05*(1+math.Abs(soft.Data[i])) {
			t.Fatalf("fallback logit %d: %g vs float %g", i, hard.Data[i], soft.Data[i])
		}
	}
	st := sess.DrainStats()
	if st.SoftMVMs != 2 {
		t.Fatalf("SoftMVMs %d, want 2", st.SoftMVMs)
	}
	if st.RowReads != 0 {
		t.Fatalf("%d crossbar row reads while fully degraded", st.RowReads)
	}

	// Remap moves the layer onto fresh hardware but keeps it on software;
	// clearing the flag brings it back onto crossbars.
	if err := eng.Remap(0); err != nil {
		t.Fatal(err)
	}
	if !eng.Fallback(0) {
		t.Fatal("remap cleared the fallback flag")
	}
	if err := eng.SetFallback(0, false); err != nil {
		t.Fatal(err)
	}
	if eng.Fallback(0) {
		t.Fatal("SetFallback(0, false) left the layer on software")
	}
	if eng.Fallback(2) != true {
		t.Fatal("remap of layer 0 disturbed layer 2's fallback state")
	}
	sess.Forward(x)
	st = sess.DrainStats()
	if st.SoftMVMs != 1 || st.RowReads == 0 {
		t.Fatalf("after partial recovery: SoftMVMs=%d RowReads=%d", st.SoftMVMs, st.RowReads)
	}
}

// TestPerLayerStats: the session attributes ECU activity to the layer that
// produced it, and the per-layer tallies sum to the session total.
func TestPerLayerStats(t *testing.T) {
	eng, _, x := remapTestEngine(t)
	sess := eng.NewSession(1)
	saturateLayer(t, eng, 2)
	sess.Forward(x)

	total := sess.Stats
	perLayer := sess.DrainLayerStats()
	var sum Stats
	for _, st := range perLayer {
		sum.Merge(st)
	}
	if sum != total {
		t.Fatalf("per-layer stats %+v do not sum to total %+v", sum, total)
	}
	if perLayer[2].Detected == 0 && perLayer[2].Corrected == 0 {
		t.Fatalf("layer 2 is saturated but shows no ECU activity: %+v", perLayer[2])
	}
	if perLayer[0].Detected != 0 {
		t.Fatalf("healthy layer 0 shows detected reads: %+v", perLayer[0])
	}
	// Drained means drained.
	if again := sess.DrainLayerStats(); len(again) != 0 {
		t.Fatalf("second drain returned %v", again)
	}
	sess.DrainStats()
	if sess.Stats != (Stats{}) {
		t.Fatal("DrainStats did not reset the session total")
	}
}

// TestConcurrentServeInjectRemap: sessions serve while faults are injected
// and layers remapped — exercised under -race in CI.
func TestConcurrentServeInjectRemap(t *testing.T) {
	eng, _, x := remapTestEngine(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			sess := eng.NewSession(seed)
			for {
				select {
				case <-stop:
					return
				default:
					sess.Predict(x)
				}
			}
		}(uint64(w))
	}
	for i := 0; i < 20; i++ {
		layer := eng.Layers()[i%2]
		if i%4 == 3 {
			if err := eng.Remap(layer); err != nil {
				t.Error(err)
			}
			continue
		}
		err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
			for _, a := range arrays {
				a.SetStuck(i%a.Rows, i%a.Cols, 0)
				a.DriftCell((i+1)%a.Rows, i%a.Cols, -1)
			}
		})
		if err != nil {
			t.Error(err)
		}
	}
	if err := eng.SetFallback(0, true); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
}
