package accel

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/stats"
)

// TestWarmMVMZeroAllocs: once the scratch arena and the sampler's binomial
// tables are warm, the noisy MVM must not touch the heap at all.
func TestWarmMVMZeroAllocs(t *testing.T) {
	for _, sch := range []Scheme{SchemeNoECC(), SchemeABN(9)} {
		t.Run(sch.Name, func(t *testing.T) {
			W := randomMatrix(t, 8, 112, 11)
			cfg := DefaultConfig(sch)
			cfg.Device.BitsPerCell = 2
			m, err := MapMatrix(cfg, 8, 112, func(r, c int) float64 { return W[r][c] }, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewFast(1)
			scr := NewScratch()
			var st Stats
			xr := rand.New(rand.NewPCG(7, 7))
			x := make([]float64, 112)
			for i := range x {
				x[i] = xr.Float64()
			}
			out := make([]float64, 8)
			for i := 0; i < 3; i++ {
				m.MVMInto(out, x, rng, scr, &st)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				m.MVMInto(out, x, rng, scr, &st)
			}); allocs != 0 {
				t.Fatalf("warm MVMInto allocates %.0f times per call, want 0", allocs)
			}
		})
	}
}

// TestWarmForwardZeroAllocs: a session's full Forward pass — quantize, mask,
// read every group, dequantize, dense + ReLU layers with buffer reuse — must
// be allocation-free once warm. The pipelined case's first layer (300
// inputs, 21 ABN groups) is wide enough for a helper to precompute its
// groups at GOMAXPROCS >= 2, and handing the Scratch to the parked helper
// and waiting it out must not allocate either, on either goroutine.
func TestWarmForwardZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		in, hidden int
	}{{"narrow", 16, 12}, {"pipelined", 300, 56}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(4, 4))
			net := &nn.Network{Name: "t", InShape: []int{tc.in},
				Layers: []nn.Layer{nn.NewDense(tc.in, tc.hidden, rng), &nn.ReLU{}, nn.NewDense(tc.hidden, 4, rng)}}
			cfg := DefaultConfig(SchemeABN(9))
			cfg.Device.BitsPerCell = 2
			eng, err := Map(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := eng.NewSession(1)
			xs := []float64{0.2, 0.8, 0.1, 0.4, 0.9, 0.5, 0.3, 0.7,
				0.6, 0.15, 0.45, 0.25, 0.35, 0.55, 0.65, 0.05}
			for len(xs) < tc.in {
				xs = append(xs, xs[len(xs)%16])
			}
			x := nn.FromSlice(xs, tc.in)
			forward := func() { sess.Forward(x) }
			if tc.name == "narrow" {
				for i := 0; i < 3; i++ {
					forward()
				}
				if allocs := testing.AllocsPerRun(50, forward); allocs != 0 {
					t.Fatalf("warm Session.Forward allocates %.0f times per call, want 0", allocs)
				}
				return
			}
			// testing.AllocsPerRun pins GOMAXPROCS to 1, which closes the
			// helper gate; count process-wide mallocs at 2+ instead.
			prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
			defer runtime.GOMAXPROCS(prev)
			h := setPipeHook(t, pipeGated, 0)
			for i := 0; i < 3; i++ {
				forward()
			}
			// Whether the helper gets scheduled in time is up to the
			// machine; repeat the measurement until it engaged in one.
			for try := 0; ; try++ {
				h.helped.Store(0)
				const runs = 50
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for i := 0; i < runs; i++ {
					forward()
				}
				runtime.ReadMemStats(&ms)
				if allocs := (ms.Mallocs - before) / runs; allocs != 0 {
					t.Fatalf("warm pipelined Session.Forward allocates %d times per call, want 0", allocs)
				}
				if h.helped.Load() > 0 {
					break
				}
				if try == 20 {
					t.Fatal("the pipeline helper never engaged on the wide layer")
				}
			}
		})
	}
}
