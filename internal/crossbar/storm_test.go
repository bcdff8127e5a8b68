package crossbar

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// refArray is the plain per-cell model the flat array is checked against:
// one [][]uint8 per level kind, a stuck map, and the row-remap bookkeeping,
// with every read-path answer recomputed from the cells on demand.
type refArray struct {
	cols, k   int
	prog, eff [][]uint8 // [phys][col]
	stuck     map[[2]int]uint8
	rowMap    []int
	spareFree []int
	spared    int
}

func newRefArray(rows, cols, bits, spares int) *refArray {
	m := &refArray{cols: cols, k: 1 << bits, stuck: map[[2]int]uint8{}}
	for p := 0; p < rows+spares; p++ {
		m.prog = append(m.prog, make([]uint8, cols))
		m.eff = append(m.eff, make([]uint8, cols))
	}
	for r := 0; r < rows; r++ {
		m.rowMap = append(m.rowMap, r)
	}
	for s := 0; s < spares; s++ {
		m.spareFree = append(m.spareFree, rows+s)
	}
	return m
}

func (m *refArray) setPhys(p, c int, lv uint8) {
	m.prog[p][c] = lv
	if _, ok := m.stuck[[2]int{p, c}]; !ok {
		m.eff[p][c] = lv
	}
}

func (m *refArray) set(r, c int, lv uint8) { m.setPhys(m.rowMap[r], c, lv) }

func (m *refArray) setStuck(r, c int, lv uint8) {
	p := m.rowMap[r]
	m.stuck[[2]int{p, c}] = lv
	m.eff[p][c] = lv
}

func (m *refArray) clearStuck(r, c int) {
	p := m.rowMap[r]
	if _, ok := m.stuck[[2]int{p, c}]; ok {
		delete(m.stuck, [2]int{p, c})
		m.eff[p][c] = m.prog[p][c]
	}
}

func (m *refArray) drift(r, c, delta int) bool {
	p := m.rowMap[r]
	if _, ok := m.stuck[[2]int{p, c}]; ok {
		return false
	}
	lv := min(max(int(m.eff[p][c])+delta, 0), m.k-1)
	if uint8(lv) == m.eff[p][c] {
		return false
	}
	m.eff[p][c] = uint8(lv)
	return true
}

func (m *refArray) spare(r int) bool {
	if len(m.spareFree) == 0 {
		return false
	}
	old, repl := m.rowMap[r], m.spareFree[0]
	m.spareFree = m.spareFree[1:]
	for c := 0; c < m.cols; c++ {
		m.setPhys(repl, c, m.prog[old][c])
	}
	m.rowMap[r] = repl
	m.spared++
	for c := 0; c < m.cols; c++ {
		delete(m.stuck, [2]int{old, c})
		m.prog[old][c], m.eff[old][c] = 0, 0
	}
	return true
}

func (m *refArray) drifted() int {
	n := 0
	for p := range m.eff {
		for c := range m.eff[p] {
			if _, ok := m.stuck[[2]int{p, c}]; !ok && m.eff[p][c] != m.prog[p][c] {
				n++
			}
		}
	}
	return n
}

// counts is the per-level active-cell count of a line's cells under input.
func (m *refArray) counts(cells []uint8, input []uint64) []int {
	out := make([]int, m.k)
	for c, lv := range cells {
		if lv != 0 && input[c/64]>>uint(c%64)&1 == 1 {
			out[lv]++
		}
	}
	return out
}

func (m *refArray) state(rows, bits int) ArrayState {
	st := ArrayState{Rows: rows, Cols: m.cols, BitsPerCell: bits, Phys: len(m.prog),
		RowMap: slices.Clone(m.rowMap), Spared: m.spared}
	for p := range m.prog {
		st.Prog = append(st.Prog, slices.Clone(m.prog[p]))
		st.Eff = append(st.Eff, slices.Clone(m.eff[p]))
	}
	if len(m.spareFree) > 0 {
		st.SpareFree = slices.Clone(m.spareFree)
	}
	for key, lv := range m.stuck {
		st.Stuck = append(st.Stuck, StuckCellState{Phys: key[0], Col: key[1], Level: lv})
	}
	slices.SortFunc(st.Stuck, func(a, b StuckCellState) int {
		if a.Phys != b.Phys {
			return a.Phys - b.Phys
		}
		return a.Col - b.Col
	})
	return st
}

// stormInputs draws bit-plane masks mixing empty, full, sparse and dense
// planes, so popcounts see every word pattern.
func stormInputs(rng *rand.Rand, planes, words, cols int) [][]uint64 {
	in := make([][]uint64, planes)
	for b := range in {
		in[b] = make([]uint64, words)
		for w := range in[b] {
			switch rng.IntN(4) {
			case 0:
			case 1:
				in[b][w] = ^uint64(0)
			case 2:
				in[b][w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			default:
				in[b][w] = rng.Uint64()
			}
		}
		if rem := cols % 64; rem != 0 {
			in[b][words-1] &= 1<<uint(rem) - 1
		}
	}
	return in
}

// checkStorm compares every read-path answer of a with the model.
func checkStorm(t *testing.T, a *Array, m *refArray, rng *rand.Rand, step int, op string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d after %s: %s", step, op, fmt.Sprintf(format, args...))
	}
	const planes, images = 3, 2
	sets := make([][][]uint64, images)
	for i := range sets {
		sets[i] = stormInputs(rng, planes, a.MaskWords(), a.Cols)
	}
	inputs := sets[0]
	counts := make([]int, m.k)
	batch := make([]int, m.k*images*planes)
	for r := range m.rowMap {
		p := m.rowMap[r]
		var present []uint8
		hist := make([]int, m.k)
		for _, lv := range m.eff[p] {
			hist[lv]++
			if lv != 0 && !slices.Contains(present, lv) {
				present = append(present, lv)
			}
		}
		slices.Sort(present)
		if got := a.LevelList(r); !slices.Equal(got, present) {
			fail("row %d level list %v, want %v", r, got, present)
		}
		if got := a.Histogram(r); !slices.Equal(got, hist) {
			fail("row %d histogram %v, want %v", r, got, hist)
		}
		for c := 0; c < a.Cols; c++ {
			if a.Level(r, c) != m.eff[p][c] || a.Programmed(r, c) != m.prog[p][c] {
				fail("cell (%d,%d) reads %d/%d, want %d/%d", r, c, a.Level(r, c), a.Programmed(r, c), m.eff[p][c], m.prog[p][c])
			}
			lv, ok := m.stuck[[2]int{p, c}]
			if glv, gok := a.Stuck(r, c); gok != ok || glv != lv {
				fail("cell (%d,%d) stuck %d/%v, want %d/%v", r, c, glv, gok, lv, ok)
			}
		}
		for b, in := range inputs {
			want := m.counts(m.eff[p], in)
			a.ActiveCounts(r, in, counts)
			if !slices.Equal(counts, want) {
				fail("row %d plane %d ActiveCounts %v, want %v", r, b, counts, want)
			}
			ideal, progOut := 0, 0
			for l, n := range want {
				ideal += l * n
			}
			for l, n := range m.counts(m.prog[p], in) {
				progOut += l * n
			}
			if got := a.IdealRowOutput(r, in); got != ideal {
				fail("row %d plane %d IdealRowOutput %d, want %d", r, b, got, ideal)
			}
			if got := a.ProgrammedRowOutput(r, in); got != progOut {
				fail("row %d plane %d ProgrammedRowOutput %d, want %d", r, b, got, progOut)
			}
		}
		// The batch kernel writes only present levels: absent ones must
		// keep the sentinel.
		for i := range batch {
			batch[i] = -1
		}
		a.ActiveCountsBatch(r, sets, batch)
		stride := images * planes
		for l := 0; l < m.k; l++ {
			for i, set := range sets {
				for b, in := range set {
					got := batch[l*stride+i*planes+b]
					want := -1
					if slices.Contains(present, uint8(l)) {
						want = m.counts(m.eff[p], in)[l]
					}
					if got != want {
						fail("row %d level %d image %d plane %d ActiveCountsBatch %d, want %d", r, l, i, b, got, want)
					}
				}
			}
		}
	}
	if got, want := a.DriftedCount(), m.drifted(); got != want {
		fail("DriftedCount %d, want %d", got, want)
	}
	if a.StuckCount() != len(m.stuck) || a.SpareRowsFree() != len(m.spareFree) || a.SparedRows() != m.spared {
		fail("stuck/free/spared %d/%d/%d, want %d/%d/%d", a.StuckCount(), a.SpareRowsFree(), a.SparedRows(),
			len(m.stuck), len(m.spareFree), m.spared)
	}
	if got, want := a.Snapshot(), m.state(a.Rows, a.BitsPerCell); !reflect.DeepEqual(got, want) {
		fail("snapshot diverges from the model")
	}
}

// TestArrayStormMatchesReference drives the flat-slab array and a plain
// per-cell model through one random sequence of every mutator — programming
// (blind, verified, whole-row), stuck faults, drift, sparing and state
// restores — and requires every read-path answer to agree after each step.
// Bit widths 1/2/4 and 16/128/200 columns cover one, two and four mask
// words and the single-level, few-level and many-level list shapes.
func TestArrayStormMatchesReference(t *testing.T) {
	const rows, spares = 6, 3
	for _, bits := range []int{1, 2, 4} {
		for _, cols := range []int{16, 128, 200} {
			t.Run(fmt.Sprintf("bits=%d/cols=%d", bits, cols), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(bits), uint64(cols)))
				a := NewArrayWithSpares(rows, cols, bits, spares)
				m := newRefArray(rows, cols, bits, spares)
				var prev *Array
				k := a.NumLevels()
				pulseFail := make([]float64, k)
				for l := range pulseFail {
					pulseFail[l] = 0.3
				}
				steps := 300
				if testing.Short() {
					steps = 60
				}
				for step := 0; step < steps; step++ {
					r, c, lv := rng.IntN(rows), rng.IntN(cols), uint8(rng.IntN(k))
					var op string
					switch n := rng.IntN(20); {
					case n < 6:
						op = "Set"
						a.Set(r, c, lv)
						m.set(r, c, lv)
					case n < 8:
						// A whole row at one level makes every other level
						// vanish from its list.
						op = "Set row"
						for c := 0; c < cols; c++ {
							a.Set(r, c, lv)
							m.set(r, c, lv)
						}
					case n < 10:
						op = "SetStuck"
						a.SetStuck(r, c, lv)
						m.setStuck(r, c, lv)
					case n < 11:
						op = "ClearStuck"
						a.ClearStuck(r, c)
						m.clearStuck(r, c)
					case n < 14:
						op = "DriftCell"
						delta := rng.IntN(5) - 2
						if got, want := a.DriftCell(r, c, delta), m.drift(r, c, delta); got != want {
							t.Fatalf("step %d: DriftCell(%d,%d,%d) reported %v, want %v", step, r, c, delta, got, want)
						}
					case n < 17:
						op = "ProgramVerify"
						var pf []float64
						if rng.IntN(2) == 0 {
							pf = pulseFail
						}
						pulses, ok := a.ProgramVerify(r, c, lv, 4, pf, rng)
						m.set(r, c, lv)
						if want := m.eff[m.rowMap[r]][c] == lv; ok && !want || pulses < 1 || pulses > 4 {
							t.Fatalf("step %d: ProgramVerify reported %d pulses ok=%v with effective level %d, target %d",
								step, pulses, ok, m.eff[m.rowMap[r]][c], lv)
						}
					case n < 18:
						op = "SpareRow"
						_, ok := a.SpareRow(r, 3, nil, rng)
						if want := m.spare(r); ok != want {
							t.Fatalf("step %d: SpareRow reported %v, want %v", step, ok, want)
						}
					default:
						// Restore into the array the previous restore left
						// behind, whose stale state must all be replaced.
						op = "Restore"
						b := prev
						if b == nil {
							b = NewArrayWithSpares(rows, cols, bits, spares)
						}
						if err := b.Restore(a.Snapshot()); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						prev, a = a, b
					}
					checkStorm(t, a, m, rng, step, op)
				}
			})
		}
	}
}
