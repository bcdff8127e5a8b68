package crossbar

import (
	"fmt"
	"sort"
)

// StuckCellState records one stuck-at fault by physical word line.
type StuckCellState struct {
	Phys  int   `json:"phys"`
	Col   int   `json:"col"`
	Level uint8 `json:"level"`
}

// ArrayState is the durable digital state of one crossbar: everything a
// restart needs to rebuild the array bit-identically. The derived read-path
// structures (level masks, present-level lists, the drifted counter) are
// deliberately absent — Restore reconstructs them from the cell levels, so
// a snapshot can never smuggle in an inconsistent cache.
type ArrayState struct {
	Rows        int `json:"rows"`
	Cols        int `json:"cols"`
	BitsPerCell int `json:"bits_per_cell"`
	// Phys is the physical word-line count (Rows + spares at allocation).
	Phys int `json:"phys"`
	// Prog[p] / Eff[p] hold the programmed and effective levels of physical
	// word line p ([]uint8 marshals compactly as base64).
	Prog  [][]uint8        `json:"prog"`
	Eff   [][]uint8        `json:"eff"`
	Stuck []StuckCellState `json:"stuck,omitempty"`
	// RowMap[r] is the physical line backing logical row r.
	RowMap []int `json:"row_map"`
	// SpareFree lists unused spare lines in ascending order.
	SpareFree []int `json:"spare_free,omitempty"`
	// Spared counts rows retired onto spares over the lifetime.
	Spared int `json:"spared"`
}

// Snapshot captures the array's durable state. The copy shares nothing with
// the live array.
func (a *Array) Snapshot() ArrayState {
	phys := a.physRows()
	st := ArrayState{
		Rows: a.Rows, Cols: a.Cols, BitsPerCell: a.BitsPerCell, Phys: phys,
		Prog:   make([][]uint8, phys),
		Eff:    make([][]uint8, phys),
		RowMap: append([]int(nil), a.rowMap...),
		Spared: a.spared,
	}
	for p := 0; p < phys; p++ {
		st.Prog[p] = append([]uint8(nil), a.progCells(p)...)
		st.Eff[p] = append([]uint8(nil), a.effCells(p)...)
	}
	if len(a.spareFree) > 0 {
		st.SpareFree = append([]int(nil), a.spareFree...)
	}
	if len(a.stuck) > 0 {
		st.Stuck = make([]StuckCellState, 0, len(a.stuck))
		for key, lv := range a.stuck {
			st.Stuck = append(st.Stuck, StuckCellState{Phys: key / a.Cols, Col: key % a.Cols, Level: lv})
		}
		sort.Slice(st.Stuck, func(i, j int) bool {
			if st.Stuck[i].Phys != st.Stuck[j].Phys {
				return st.Stuck[i].Phys < st.Stuck[j].Phys
			}
			return st.Stuck[i].Col < st.Stuck[j].Col
		})
	}
	return st
}

// CheckState validates a snapshot against this array's geometry without
// touching any state. A nil error guarantees a subsequent Restore of the
// same snapshot succeeds.
func (a *Array) CheckState(st ArrayState) error {
	phys := a.physRows()
	if st.Rows != a.Rows || st.Cols != a.Cols || st.BitsPerCell != a.BitsPerCell || st.Phys != phys {
		return fmt.Errorf("crossbar: snapshot geometry %dx%d/%db/%dp does not match array %dx%d/%db/%dp",
			st.Rows, st.Cols, st.BitsPerCell, st.Phys, a.Rows, a.Cols, a.BitsPerCell, phys)
	}
	if len(st.Prog) != phys || len(st.Eff) != phys {
		return fmt.Errorf("crossbar: snapshot has %d/%d level rows, want %d", len(st.Prog), len(st.Eff), phys)
	}
	maxLevel := uint8(a.NumLevels() - 1)
	for p := 0; p < phys; p++ {
		if len(st.Prog[p]) != a.Cols || len(st.Eff[p]) != a.Cols {
			return fmt.Errorf("crossbar: snapshot row %d has %d/%d cells, want %d", p, len(st.Prog[p]), len(st.Eff[p]), a.Cols)
		}
		for c := 0; c < a.Cols; c++ {
			if st.Prog[p][c] > maxLevel || st.Eff[p][c] > maxLevel {
				return fmt.Errorf("crossbar: snapshot cell (%d,%d) level exceeds %d-bit cell", p, c, a.BitsPerCell)
			}
		}
	}
	if len(st.RowMap) != a.Rows {
		return fmt.Errorf("crossbar: snapshot row map covers %d rows, want %d", len(st.RowMap), a.Rows)
	}
	used := make(map[int]bool, a.Rows)
	for r, p := range st.RowMap {
		if p < 0 || p >= phys {
			return fmt.Errorf("crossbar: snapshot maps row %d to physical line %d (have %d)", r, p, phys)
		}
		if used[p] {
			return fmt.Errorf("crossbar: snapshot maps two rows to physical line %d", p)
		}
		used[p] = true
	}
	prev := -1
	for _, s := range st.SpareFree {
		if s < a.Rows || s >= phys {
			return fmt.Errorf("crossbar: snapshot free spare %d outside spare bank [%d,%d)", s, a.Rows, phys)
		}
		if s <= prev {
			return fmt.Errorf("crossbar: snapshot free-spare list not strictly ascending at %d", s)
		}
		if used[s] {
			return fmt.Errorf("crossbar: snapshot lists mapped line %d as a free spare", s)
		}
		prev = s
	}
	if st.Spared < 0 || st.Spared > phys-a.Rows {
		return fmt.Errorf("crossbar: snapshot spared count %d outside [0,%d]", st.Spared, phys-a.Rows)
	}
	seen := make(map[int]bool, len(st.Stuck))
	for _, sc := range st.Stuck {
		if sc.Phys < 0 || sc.Phys >= phys || sc.Col < 0 || sc.Col >= a.Cols {
			return fmt.Errorf("crossbar: snapshot stuck cell (%d,%d) out of range", sc.Phys, sc.Col)
		}
		if sc.Level > maxLevel {
			return fmt.Errorf("crossbar: snapshot stuck cell (%d,%d) level exceeds %d-bit cell", sc.Phys, sc.Col, a.BitsPerCell)
		}
		key := sc.Phys*a.Cols + sc.Col
		if seen[key] {
			return fmt.Errorf("crossbar: snapshot pins stuck cell (%d,%d) twice", sc.Phys, sc.Col)
		}
		seen[key] = true
		// A stuck cell's effective level is pinned by the fault; a snapshot
		// where they disagree was not produced by this code.
		if st.Eff[sc.Phys][sc.Col] != sc.Level {
			return fmt.Errorf("crossbar: snapshot stuck cell (%d,%d) pinned at %d but effective level is %d",
				sc.Phys, sc.Col, sc.Level, st.Eff[sc.Phys][sc.Col])
		}
	}
	return nil
}

// Restore rebuilds the array from a snapshot: cell levels, stuck faults,
// row remapping, and the spare budget are taken verbatim, and every derived
// structure (masks, level lists, drift counter) is recomputed through the
// same invariant-maintaining mutators the live write path uses.
// The snapshot is validated first; on error the array is untouched.
func (a *Array) Restore(st ArrayState) error {
	if err := a.CheckState(st); err != nil {
		return err
	}
	// Reset to the freshly-allocated state, then replay the snapshot through
	// setProg/setEff so the masks and level lists can never drift from the
	// cells.
	clear(a.cells)
	clear(a.masks)
	clear(a.present)
	a.stuck = nil
	for p := 0; p < a.physRows(); p++ {
		for c := 0; c < a.Cols; c++ {
			a.setProg(p, c, st.Prog[p][c])
			a.setEff(p, c, st.Eff[p][c])
		}
	}
	if len(st.Stuck) > 0 {
		a.stuck = make(map[int]uint8, len(st.Stuck))
		for _, sc := range st.Stuck {
			a.stuck[sc.Phys*a.Cols+sc.Col] = sc.Level
		}
	}
	copy(a.rowMap, st.RowMap)
	a.spareFree = append(a.spareFree[:0], st.SpareFree...)
	a.spared = st.Spared
	a.drifted = a.driftedSlow()
	return nil
}
