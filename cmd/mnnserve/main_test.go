package main

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
)

// TestDriveServedClockAppliesEveryStep: a poll that finds the served
// counter several steps ahead applies each crossed step in order, so no
// scenario excursion or campaign step is skipped.
func TestDriveServedClockAppliesEveryStep(t *testing.T) {
	var served atomic.Uint64
	var got []int
	driveServedClock(context.Background(), served.Load, 3, 0, 5, func(step int) bool {
		got = append(got, step)
		if step == 0 {
			// Sixteen requests land before the next poll: steps 1-5 are
			// all crossed at once.
			served.Store(16)
		}
		return true
	})
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("applied steps %v, want %v", got, want)
	}
}
