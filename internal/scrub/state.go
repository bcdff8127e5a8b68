package scrub

import (
	"fmt"
	"sort"
)

// LayerPassState records how many patrol passes one layer has received —
// the pass count keys the verify-draw RNG stream of the next pass, so it is
// the only per-layer scrub state a restart must carry.
type LayerPassState struct {
	Layer int    `json:"layer"`
	Pass  uint64 `json:"pass"`
}

// State is the durable state of one Scrubber: the rotation cursor, the
// per-layer pass counts, and the lifetime accounting.
type State struct {
	Seed   uint64           `json:"seed"`
	Cursor int              `json:"cursor"`
	Passes []LayerPassState `json:"passes,omitempty"`
	Totals Totals           `json:"totals"`
}

// Snapshot captures the scrubber's durable state. Like the patrol methods
// it must be called from the goroutine driving the scrubber.
func (s *Scrubber) Snapshot() State {
	st := State{Seed: s.seed, Cursor: s.cursor, Totals: s.totals}
	if len(s.pass) > 0 {
		st.Passes = make([]LayerPassState, 0, len(s.pass))
		for layer, n := range s.pass {
			st.Passes = append(st.Passes, LayerPassState{Layer: layer, Pass: n})
		}
		sort.Slice(st.Passes, func(i, j int) bool { return st.Passes[i].Layer < st.Passes[j].Layer })
	}
	return st
}

// CheckRestore validates a snapshot against this scrubber without touching
// any state; a nil error guarantees Restore will succeed.
func (s *Scrubber) CheckRestore(st State) error {
	if st.Seed != s.seed {
		return fmt.Errorf("scrub: snapshot seed %d does not match scrubber seed %d", st.Seed, s.seed)
	}
	if len(s.order) == 0 {
		if st.Cursor != 0 {
			return fmt.Errorf("scrub: snapshot cursor %d with no patrol order", st.Cursor)
		}
	} else if st.Cursor < 0 || st.Cursor >= len(s.order) {
		return fmt.Errorf("scrub: snapshot cursor %d outside patrol order of %d layers", st.Cursor, len(s.order))
	}
	known := make(map[int]bool, len(s.order))
	for _, l := range s.order {
		known[l] = true
	}
	seen := make(map[int]bool, len(st.Passes))
	for _, lp := range st.Passes {
		if !known[lp.Layer] {
			return fmt.Errorf("scrub: snapshot counts passes for unpatrolled layer %d", lp.Layer)
		}
		if seen[lp.Layer] {
			return fmt.Errorf("scrub: snapshot counts layer %d twice", lp.Layer)
		}
		seen[lp.Layer] = true
	}
	return nil
}

// Restore positions the scrubber at a persisted rotation point, so the next
// pass over each layer draws the same verify stream it would have drawn had
// the process never restarted.
func (s *Scrubber) Restore(st State) error {
	if err := s.CheckRestore(st); err != nil {
		return err
	}
	s.cursor = st.Cursor
	s.pass = make(map[int]uint64, len(st.Passes))
	for _, lp := range st.Passes {
		s.pass[lp.Layer] = lp.Pass
	}
	s.totals = st.Totals
	return nil
}
