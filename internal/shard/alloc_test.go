package shard

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/replica"
)

// TestPoolSessionAllocParity is the hot-path gate for the routing layer: a
// warm pool session's Forward and ForwardBatch must allocate no more than
// the bare replica session it delegates to. Every routing structure — the
// owner table, the lockstep walk — is built at session construction; steady
// state only walks them.
func TestPoolSessionAllocParity(t *testing.T) {
	setSes := func() interface {
		Reseed(uint64)
		Forward(*nn.Tensor) *nn.Tensor
		ForwardBatch([]*nn.Tensor, []uint64) ([]*nn.Tensor, []error)
	} {
		set, err := replica.NewSet(noisyEngine(t), poolConfig(1).Replicas)
		if err != nil {
			t.Fatal(err)
		}
		return set.NewSession(1)
	}
	poolSes := func(n int) interface {
		Reseed(uint64)
		Forward(*nn.Tensor) *nn.Tensor
		ForwardBatch([]*nn.Tensor, []uint64) ([]*nn.Tensor, []error)
	} {
		pool, err := NewPool(noisyEngine(t), poolConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		return pool.NewSession(1)
	}

	x := testInput(1)
	xs := []*nn.Tensor{testInput(1), testInput(2), testInput(3), testInput(4)}
	streams := []uint64{11, 12, 13, 14}

	measure := func(ses interface {
		Reseed(uint64)
		Forward(*nn.Tensor) *nn.Tensor
		ForwardBatch([]*nn.Tensor, []uint64) ([]*nn.Tensor, []error)
	}) (forward, batch float64) {
		// Warm: arm the batcher and fill every lazily-grown scratch buffer.
		for i := 0; i < 8; i++ {
			ses.Reseed(uint64(i + 1))
			ses.Forward(x)
			if _, errs := ses.ForwardBatch(xs, streams); errs != nil {
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		seed := uint64(100)
		forward = testing.AllocsPerRun(100, func() {
			seed++
			ses.Reseed(seed)
			ses.Forward(x)
		})
		batch = testing.AllocsPerRun(100, func() {
			ses.ForwardBatch(xs, streams)
		})
		return forward, batch
	}

	baseForward, baseBatch := measure(setSes())
	for _, n := range []int{2, 4} {
		gotForward, gotBatch := measure(poolSes(n))
		if gotForward > baseForward {
			t.Errorf("%d shards: warm Forward allocates %.0f/op, bare replica set %.0f/op — routing must add zero",
				n, gotForward, baseForward)
		}
		if gotBatch > baseBatch {
			t.Errorf("%d shards: warm ForwardBatch allocates %.0f/op, bare replica set %.0f/op — routing must add zero",
				n, gotBatch, baseBatch)
		}
	}
}
