package shard

import (
	"testing"

	"repro/internal/nn"
)

// TestPoolSessionAllocParity is the hot-path gate for the routing layer: a
// warm pool session allocates nothing per pass, for a lone image and for a
// batch, at any shard count. Every routing structure — the owner table, the
// per-shard routers, the lockstep walk — is built at session construction;
// steady state only walks them.
func TestPoolSessionAllocParity(t *testing.T) {
	one := []*nn.Tensor{testInput(1)}
	xs := []*nn.Tensor{testInput(1), testInput(2), testInput(3), testInput(4)}
	streams := []uint64{11, 12, 13, 14}
	oneStream := make([]uint64, 1)

	for _, n := range []int{1, 2, 4} {
		pool, err := NewPool(noisyEngine(t), poolConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		ses := pool.NewSession(1)
		// Warm: arm the batcher and fill every lazily-grown scratch buffer.
		for i := 0; i < 8; i++ {
			forward(t, ses, uint64(i+1), one[0])
			_, errs := ses.ForwardBatch(xs, streams)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		seed := uint64(100)
		gotOne := testing.AllocsPerRun(100, func() {
			seed++
			oneStream[0] = seed
			ses.ForwardBatch(one, oneStream)
		})
		gotBatch := testing.AllocsPerRun(100, func() {
			ses.ForwardBatch(xs, streams)
		})
		if gotOne != 0 {
			t.Errorf("%d shards: warm one-image ForwardBatch allocates %.0f/op, want 0", n, gotOne)
		}
		if gotBatch != 0 {
			t.Errorf("%d shards: warm 4-image ForwardBatch allocates %.0f/op, want 0", n, gotBatch)
		}
	}
}
