package replica_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/accel"
	"repro/internal/nn"
	"repro/internal/replica"
)

// noisyEngine maps the tiny network with the full default noise model, so
// the batched path's per-lane RNG isolation actually carries draws.
func noisyEngine(t testing.TB) *accel.Engine {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 3))
	net := &nn.Network{Name: "tiny", InShape: []int{16},
		Layers: []nn.Layer{nn.NewDense(16, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	eng, err := accel.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReplicaForwardBatchMatchesSerial: on healthy hardware the routed
// batched forward must be bit-identical, stream for stream, to the serial
// routed session — picks, per-layer stream derivation, and noise draws all
// preserved — and the per-lane stat drains must equal the serial
// per-request drains.
func TestReplicaForwardBatchMatchesSerial(t *testing.T) {
	const b = 8
	streams := make([]uint64, b)
	xs := make([]*nn.Tensor, b)
	for i := range streams {
		streams[i] = uint64(300 + i)
		xs[i] = testInput(streams[i])
	}

	eng := noisyEngine(t)
	pool, _ := routedSet(t, eng, replica.Config{N: 3, Monitor: testMonitor()})
	ser := pool.NewSession(1)
	want := make([][]float64, b)
	wantSt := make([]accel.Stats, b)
	for i, stream := range streams {
		want[i] = append([]float64(nil), forward(t, ser, stream, xs[i]).Data...)
		wantSt[i] = ser.DrainBatchStats(0)
	}

	eng2 := noisyEngine(t)
	pool2, _ := routedSet(t, eng2, replica.Config{N: 3, Monitor: testMonitor()})
	ses := pool2.NewSession(1)
	outs, errs := ses.ForwardBatch(xs, streams)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("image %d: %v", i, errs[i])
		}
		for k, v := range outs[i].Data {
			if math.Float64bits(v) != math.Float64bits(want[i][k]) {
				t.Fatalf("image %d logit %d: batch %v != serial %v", i, k, v, want[i][k])
			}
		}
		st := ses.DrainBatchStats(i)
		st.BatchMVMs = 0 // the only field allowed to differ: it marks the path
		if st != wantSt[i] {
			t.Fatalf("image %d stats: batch %+v != serial %+v", i, st, wantSt[i])
		}
	}
}

// TestReplicaForwardBatchFailover: with one replica's layer saturated, a
// batch routed through the set must still answer every image with the
// clean sibling's output — the failover rung runs inside the batch without
// failing batchmates.
func TestReplicaForwardBatchFailover(t *testing.T) {
	const b = 8
	streams := make([]uint64, b)
	xs := make([]*nn.Tensor, b)
	for i := range streams {
		streams[i] = uint64(500 + i)
		xs[i] = testInput(streams[i])
	}
	want := reference(t, streams)

	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 2, Monitor: testMonitor()})
	saturate(t, set.Engine(1), 0)
	ses := pool.NewSession(1)
	outs, errs := ses.ForwardBatch(xs, streams)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("image %d: %v", i, errs[i])
		}
		for k, v := range outs[i].Data {
			if math.Float64bits(v) != math.Float64bits(want[streams[i]][k]) {
				t.Fatalf("image %d logit %d: %v != clean reference %v", i, k, v, want[streams[i]][k])
			}
		}
	}
	st := set.Status()
	var failovers uint64
	for _, r := range st.Replicas {
		failovers += r.Failovers
	}
	if failovers == 0 {
		t.Fatal("saturated replica never triggered an in-batch failover")
	}
}

// TestReplicaForwardBatchVote: a persistently flagged layer must escalate
// to the 3-replica majority vote inside a batch, and the median must
// out-vote the damaged copy.
func TestReplicaForwardBatchVote(t *testing.T) {
	const b = 6
	streams := make([]uint64, b)
	xs := make([]*nn.Tensor, b)
	for i := range streams {
		streams[i] = uint64(700 + i)
		xs[i] = testInput(streams[i])
	}
	want := reference(t, streams)

	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 3, VoteThreshold: 1, Monitor: testMonitor()})
	saturate(t, set.Engine(0), 0)
	ses := pool.NewSession(1)
	outs, errs := ses.ForwardBatch(xs, streams)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("image %d: %v", i, errs[i])
		}
		for k, v := range outs[i].Data {
			if math.Abs(v-want[streams[i]][k]) > 1e-9 {
				t.Fatalf("image %d logit %d: %v too far from clean reference %v", i, k, v, want[streams[i]][k])
			}
		}
	}
	if set.Status().Votes == 0 {
		t.Fatal("saturated replica never triggered an in-batch vote")
	}
}
