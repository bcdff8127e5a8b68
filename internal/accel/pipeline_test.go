package accel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// setPipeHook installs a test override of the pipeline helper gate for the
// rest of the test.
func setPipeHook(t *testing.T, mode pipeMode, dropAfter int32) *pipeTestHook {
	t.Helper()
	h := &pipeTestHook{mode: mode, dropAfter: dropAfter}
	pipeHook.Store(h)
	t.Cleanup(func() { pipeHook.Store(nil) })
	return h
}

// pipeRun is everything one sequence of MVMs leaves behind.
type pipeRun struct {
	outs [][]uint64 // output float bits, per MVM
	st   Stats
	next uint64 // the rng's next Uint64 after the last MVM
}

// TestPipelineInvariance: whether the precompute runs on the caller, on a
// helper, or on a helper that leaves mid-MVM, and whatever GOMAXPROCS is,
// the MVM outputs, the full stats and the rng's end state must be
// bit-identical — the precompute touches no RNG and every draw stays on the
// caller in its historical order. The layer (300 inputs, 3 column chunks)
// is wide enough to pipeline under every scheme; the noisy case makes the
// ECU detect and re-read.
func TestPipelineInvariance(t *testing.T) {
	W := randomMatrix(t, 56, 300, 41)
	xr := rand.New(rand.NewPCG(42, 42))
	xs := make([][]float64, 3)
	for i := range xs {
		xs[i] = make([]float64, 300)
		for j := range xs[i] {
			xs[i][j] = xr.Float64()
		}
	}
	for _, tc := range []struct {
		name string
		s    Scheme
		mod  func(*Config)
	}{
		{"NoECC/bits=2", SchemeNoECC(), func(*Config) {}},
		{"ABN-9/bits=2", SchemeABN(9), func(*Config) {}},
		{"ABN-9/bits=4/retries", SchemeABN(9), func(c *Config) {
			c.Device.BitsPerCell = 4
			c.Device.FailureRate = 0.002
			c.Retries = 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.s)
			cfg.Device.BitsPerCell = 2
			tc.mod(&cfg)
			m, err := MapMatrix(cfg, 56, 300, func(r, c int) float64 { return W[r][c] }, 5)
			if err != nil {
				t.Fatal(err)
			}
			if m.PhysicalRows < pipeMinRows {
				t.Fatalf("fixture has %d word lines, below the pipeline threshold %d", m.PhysicalRows, pipeMinRows)
			}
			run := func() pipeRun {
				rng := stats.NewFast(77)
				scr := NewScratch()
				var r pipeRun
				out := make([]float64, 56)
				for _, x := range xs {
					m.MVMInto(out, x, rng, scr, &r.st)
					bits := make([]uint64, len(out))
					for i, v := range out {
						bits[i] = math.Float64bits(v)
					}
					r.outs = append(r.outs, bits)
				}
				r.next = rng.Uint64()
				return r
			}
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			setPipeHook(t, pipeOff, 0)
			ref := run()
			if tc.name == "ABN-9/bits=4/retries" && ref.st.Retries == 0 {
				t.Fatalf("noisy fixture never re-reads: %+v", ref.st)
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, mode := range []struct {
					name string
					mode pipeMode
					drop int32
				}{{"off", pipeOff, 0}, {"on", pipeOn, 0}, {"drop", pipeDrop, 3}, {"gated", pipeGated, 0}} {
					where := fmt.Sprintf("GOMAXPROCS=%d helper=%s", procs, mode.name)
					// A forced helper is offered every MVM, but it only
					// precomputes if it gets scheduled before the caller
					// has claimed every group: with one P the caller never
					// yields mid-MVM, and on a loaded machine a helper can
					// arrive late. Repeat (every repeat must match) until
					// one engaged.
					forced := mode.mode == pipeOn || mode.mode == pipeDrop
					h := setPipeHook(t, mode.mode, mode.drop)
					for try := 0; ; try++ {
						before := h.helped.Load()
						got := run()
						if mode.mode == pipeDrop && h.helped.Load()-before > int64(len(xs))*int64(mode.drop) {
							t.Fatalf("%s: the helper filled %d groups, past its drop point", where, h.helped.Load()-before)
						}
						for i := range ref.outs {
							for j := range ref.outs[i] {
								if got.outs[i][j] != ref.outs[i][j] {
									t.Fatalf("%s: MVM %d output %d differs", where, i, j)
								}
							}
						}
						if got.st != ref.st {
							t.Fatalf("%s: stats %+v, want %+v", where, got.st, ref.st)
						}
						if got.next != ref.next {
							t.Fatalf("%s: rng end state differs", where)
						}
						if !forced || procs == 1 || h.helped.Load() > 0 {
							break
						}
						if try == 200 {
							t.Fatalf("%s: the helper never precomputed a group", where)
						}
					}
				}
			}
		})
	}
}
