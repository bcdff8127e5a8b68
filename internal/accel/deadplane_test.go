package accel

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/stats"
)

// TestDeadPlaneReadDrawsNothing: a group read under an input bit plane that
// drives no column must return zero lanes, tally one row read per word line
// and one clean ECU outcome (none under NoECC, which has no ECU), and draw
// nothing — for every library device and scheme, with stuck and
// giant-prone cells on the groups. It also pins why skipping such a plane
// is exact: resolving its rows the long way (zero counts through the
// level-list aggregation, the stuck scan and the draw loop) gives an
// all-zero aggregate and a zero word without touching the rng. Last, an
// all-zero input through the whole kernel reads zero and draws nothing.
func TestDeadPlaneReadDrawsNothing(t *testing.T) {
	const out, in = 16, 100
	W := randomMatrix(t, out, in, 9)
	live := make([]uint64, (in+63)/64)
	for c := 0; c < in; c++ {
		live[c/64] |= 1 << (c % 64)
	}
	for _, dev := range noise.Devices() {
		for _, s := range []Scheme{SchemeNoECC(), SchemeStatic128(), SchemeABN(9)} {
			name := dev.Name + "/" + s.Name
			cfg := DefaultConfig(s)
			cfg.Device, cfg.DeviceName = dev.Params, dev.Name
			cfg.Device.FailureRate = 0.02
			cfg.Device.GiantProneProb = 0.02
			m, err := MapMatrix(cfg, out, in, func(r, c int) float64 { return W[r][c] }, 3)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			masks := [][]uint64{make([]uint64, len(live)), live}
			sn := m.sampler.BinomSnapshot()
			stuck, giant := 0, 0
			for _, g := range m.chunks[0].groups {
				stuck += len(g.stuck.ent)
				giant += len(g.giant.ent)
				rows := g.arr.Rows
				// Fill the slot under two live planes first, so the dead
				// plane's entries hold a live read the precompute leaves
				// stale.
				scr := NewScratch()
				scr.masks = [][][]uint64{{live, live}}
				g.precompute(m, 0, []mvmImage{{scr: scr}}, 0, &sn, &scr.kn)
				scr.masks = [][][]uint64{masks}
				g.precompute(m, 0, []mvmImage{{scr: scr}}, 0, &sn, &scr.kn)
				rng, probe := stats.NewFast(5), stats.NewFast(5)
				var st Stats
				lanes := g.read(m, scr, scr.slots[0], masks, 0, rng, &st)
				for i, l := range lanes {
					if l != 0 {
						t.Fatalf("%s: lane %d reads %d under a dead plane", name, i, l)
					}
				}
				want := Stats{RowReads: uint64(rows)}
				if g.code != nil {
					want.Clean = 1
				}
				if st != want {
					t.Fatalf("%s: dead-plane read tallied %+v, want %+v", name, st, want)
				}
				if rng.Uint64() != probe.Uint64() {
					t.Fatalf("%s: dead-plane read moved the rng", name)
				}

				// The long way: what the read would do without the shortcut.
				rng, probe = stats.NewFast(6), stats.NewFast(6)
				zeros := make([]int, g.arr.NumLevels())
				reads := make([]rowRead, rows)
				for r := range reads {
					agg, ideal := m.sampler.AggregateLevels(g.arr.LevelList(r), zeros, 1, 0)
					if agg.N != 0 || agg.Sbar != 0 || math.Float64bits(agg.Resid) != 0 || agg.Sigma != 0 || ideal != 0 {
						t.Fatalf("%s row %d: zero counts aggregate to %+v, ideal %d", name, r, agg, ideal)
					}
					g.resolve(m, &sn, r, masks[0], agg, ideal, &reads[r])
				}
				var long Stats
				w := g.sampleRows(m, reads, masks[0], rng, &long)
				if w != (core.Word{}) || long != (Stats{RowReads: uint64(rows)}) {
					t.Fatalf("%s: the full draw loop reads %v with %+v under a dead plane", name, w, long)
				}
				if rng.Uint64() != probe.Uint64() {
					t.Fatalf("%s: the full draw loop moved the rng under a dead plane", name)
				}
				if g.code != nil {
					if _, status := g.code.Correct(w); status != core.StatusClean {
						t.Fatalf("%s: a zero word corrects as %v", name, status)
					}
				}
			}
			if stuck == 0 || giant == 0 {
				t.Fatalf("%s: fixture carries %d stuck and %d giant-prone cells, want both", name, stuck, giant)
			}

			// The whole kernel on an all-zero input.
			rng, probe := stats.NewFast(7), stats.NewFast(7)
			var st Stats
			y := make([]float64, out)
			m.MVMInto(y, make([]float64, in), rng, NewScratch(), &st)
			for i, v := range y {
				if v != 0 {
					t.Fatalf("%s: output %d is %v on a zero input", name, i, v)
				}
			}
			want := Stats{RowReads: uint64(m.PhysicalRows * cfg.InputBits)}
			if s.Name != SchemeNoECC().Name {
				want.Clean = uint64(m.NumGroups() * cfg.InputBits)
			}
			if st != want || rng.Uint64() != probe.Uint64() {
				t.Fatalf("%s: zero input tallied %+v (want %+v) or moved the rng", name, st, want)
			}
		}
	}
}
