package accel

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/nn"
)

// mappedGroupState is everything one coded group's mapping decides: the
// persisted cell state, the code, and the precomputed fault effects.
type mappedGroupState struct {
	Array      crossbar.ArrayState
	HasCode    bool
	A, B       uint64
	Entries    []core.Syndrome
	Covered    float64
	StuckRows  [][]stuckInfo
	GiantRows  [][]giantInfo
	OutRows    []int
	NumRows    int
	ChunkRange [2]int
}

type mappedLayerState struct {
	Groups       []mappedGroupState
	Verify       crossbar.VerifyTally
	PhysicalRows int
}

// perRow expands a row table to one entry list per row (nil when empty).
func perRow[T any](t *rowTable[T], rows int) [][]T {
	out := make([][]T, rows)
	for r := range out {
		if e := t.row(r); len(e) > 0 {
			out[r] = e
		}
	}
	return out
}

func captureMapping(t *testing.T, eng *Engine) []mappedLayerState {
	t.Helper()
	var out []mappedLayerState
	for _, li := range eng.Layers() {
		m := eng.Mapped(li)
		ls := mappedLayerState{Verify: m.VerifyStats(), PhysicalRows: m.PhysicalRows}
		for _, ch := range m.chunks {
			for _, g := range ch.groups {
				gs := mappedGroupState{Array: g.arr.Snapshot(), StuckRows: perRow(&g.stuck, g.arr.Rows), GiantRows: perRow(&g.giant, g.arr.Rows),
					OutRows: g.outRows, NumRows: g.arr.Rows, ChunkRange: [2]int{ch.colLo, ch.colHi}}
				if g.code != nil {
					gs.HasCode, gs.A, gs.B = true, g.code.A, g.code.B
					gs.Entries = g.code.Table.Syndromes()
					gs.Covered = g.code.Table.CoveredProb()
				}
				ls.Groups = append(ls.Groups, gs)
			}
		}
		out = append(out, ls)
	}
	return out
}

// TestMapWorkerInvariance maps a small two-layer net under every coded
// scheme family at GOMAXPROCS 1 and 4 and requires byte-equal mappings:
// the window size (4 groups per proc) and the number of A-search workers
// are scheduling choices that must never move a draw. The first layer has
// 3 column chunks of 7 eight-lane groups (56 single-lane groups under
// NoECC), so windows of 4 and 16 groups both end mid-chunk; spares and
// program-verify are on so both the fault-injection and verify streams are
// checked.
func TestMapWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	net := &nn.Network{Name: "mapinv", InShape: []int{300},
		Layers: []nn.Layer{nn.NewDense(300, 56, rng), &nn.ReLU{}, nn.NewDense(56, 10, rng)}}
	for _, tc := range []struct {
		s    Scheme
		bits int
	}{{SchemeNoECC(), 2}, {SchemeStatic128(), 2}, {SchemeABN(8), 2}, {SchemeABN(9), 2}, {SchemeABN(9), 4}} {
		s := tc.s
		t.Run(fmt.Sprintf("%s/bits=%d", s.Name, tc.bits), func(t *testing.T) {
			cfg := DefaultConfig(s)
			cfg.Device.BitsPerCell = tc.bits
			cfg.Device.FailureRate = 0.001
			if tc.bits == 4 {
				// Finer conductance steps turn giant-RTN events into
				// multi-step errors, so the search registers extra steps
				// and pairwise sums in its reused per-row buffers.
				cfg.Device.GiantProneProb *= 10
			}
			cfg.SpareRows = 2
			cfg.VerifyIters = 5
			var ref []mappedLayerState
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				eng, err := Map(net, cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				got := captureMapping(t, eng)
				if ref == nil {
					ref = got
					stuck := 0
					for _, l := range got {
						for _, g := range l.Groups {
							for _, row := range g.StuckRows {
								stuck += len(row)
							}
						}
					}
					if stuck == 0 || got[0].Verify.Cells == 0 || len(got[0].Groups) < 17 {
						t.Fatalf("fixture too small: %d stuck cells, verify %+v, %d groups",
							stuck, got[0].Verify, len(got[0].Groups))
					}
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					for li := range got {
						if !reflect.DeepEqual(got[li].Verify, ref[li].Verify) || got[li].PhysicalRows != ref[li].PhysicalRows {
							t.Fatalf("GOMAXPROCS=%d layer %d: verify %+v rows %d, want %+v rows %d", procs, li,
								got[li].Verify, got[li].PhysicalRows, ref[li].Verify, ref[li].PhysicalRows)
						}
						for gi := range got[li].Groups {
							if !reflect.DeepEqual(got[li].Groups[gi], ref[li].Groups[gi]) {
								t.Fatalf("GOMAXPROCS=%d layer %d group %d differs from GOMAXPROCS=1", procs, li, gi)
							}
						}
					}
					t.Fatalf("GOMAXPROCS=%d mapping differs from GOMAXPROCS=1", procs)
				}
			}
		})
	}
}
