package accel

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/stats"
)

// TestRaceTrafficVsMutators is the dedicated locking-contract regression for
// everything the scrubber depends on: one goroutine hammers WithArrays
// (fault injection), one hammers Remap, one hammers WithScrubTargets with
// real patrol operations (ProgramVerify re-programming and SpareRow
// sparing), and one flips the software fallback — all while several
// Session.Forward streams serve live traffic. Under -race this fails on any
// reader/mutator interleaving the per-layer RWMutex does not cover. The
// first layer (300 inputs, 12 groups) is wide enough to pipeline, and the
// helper is forced on, so precompute helpers run under the readers' locks
// while the mutators wait to write.
func TestRaceTrafficVsMutators(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	net := &nn.Network{Name: "race", InShape: []int{300},
		Layers: []nn.Layer{nn.NewDense(300, 32, rng), &nn.ReLU{}, nn.NewDense(32, 12, rng), &nn.ReLU{},
			nn.NewDense(12, 4, rng)}}
	cfg := quietConfig(SchemeABN(8), 2)
	cfg.SpareRows = 8
	eng, err := Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := setPipeHook(t, pipeOn, 0)
	defer func() {
		if h.helped.Load() == 0 {
			t.Error("no pipeline helper ran under the mutators")
		}
	}()
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64((i*37)%100) / 100
	}
	x := nn.FromSlice(xs, 300)
	layers := eng.Layers()

	const iters = 25
	var mut sync.WaitGroup
	stop := make(chan struct{})
	var traffic sync.WaitGroup

	// Live traffic: four forward streams.
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			sess := eng.NewSession(uint64(100 + g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sess.Reseed(uint64(g*10_000 + i))
				if out := sess.Forward(x); out == nil {
					t.Error("nil forward output")
					return
				}
			}
		}(g)
	}

	// Mutator 1: online fault injection through WithArrays.
	mut.Add(1)
	go func() {
		defer mut.Done()
		mrng := stats.SubRNG(34, 1)
		for i := 0; i < iters; i++ {
			layer := layers[i%len(layers)]
			err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
				for _, a := range arrays {
					r := mrng.IntN(a.Rows)
					for c := 0; c < a.Cols; c += 4 {
						a.DriftCell(r, c, 1)
					}
					a.SetStuck(mrng.IntN(a.Rows), mrng.IntN(a.Cols), uint8(mrng.IntN(a.NumLevels())))
					_ = a.DriftedCount()
					_ = a.StuckCount()
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Mutator 2: repeated remaps swap whole mapped matrices under traffic.
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; i < iters; i++ {
			if err := eng.Remap(layers[i%len(layers)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Mutator 3: patrol-style repairs through WithScrubTargets — verified
	// re-programming and row sparing, exactly what the scrubber does.
	mut.Add(1)
	go func() {
		defer mut.Done()
		srng := stats.SubRNG(35, 1)
		for i := 0; i < iters; i++ {
			layer := layers[(i+1)%len(layers)]
			err := eng.WithScrubTargets(layer, func(targets []ScrubTarget) {
				for _, tgt := range targets {
					a := tgt.Arr
					r := srng.IntN(a.Rows)
					for c := 0; c < a.Cols; c += 8 {
						a.ProgramVerify(r, c, a.Programmed(r, c), 3, tgt.PulseFail, srng)
					}
					if a.SpareRowsFree() > 0 && srng.IntN(4) == 0 {
						a.SpareRow(srng.IntN(a.Rows), 3, tgt.PulseFail, srng)
					}
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
			_ = eng.VerifyStats()
		}
	}()

	// Mutator 4: fallback flips and read-side accessors.
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; i < iters; i++ {
			layer := layers[i%len(layers)]
			if err := eng.SetFallback(layer, i%2 == 0); err != nil {
				t.Error(err)
				return
			}
			_ = eng.DegradedLayers()
			_ = eng.RemapCount(layer)
			_ = eng.NumGroups()
		}
	}()

	// Mutator 5: environment retunes swap the noise sampler under traffic —
	// the scenario-engine path.
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; i < iters; i++ {
			dev := cfg.Device
			dev.TempK = 350 + float64(i%60)
			dev.PRTN = float64(i%10) / 20
			if err := eng.Retune(dev); err != nil {
				t.Error(err)
				return
			}
			_ = eng.ActiveDevice()
		}
	}()

	mut.Wait()
	close(stop)
	traffic.Wait()
}
