package shard

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/replica"
)

// noisyNet builds a small four-MVM-layer network: enough mapped layers to
// slice into four single-layer shards.
func noisyNet() *nn.Network {
	rng := rand.New(rand.NewPCG(7, 3))
	return &nn.Network{Name: "tiny4", InShape: []int{16},
		Layers: []nn.Layer{
			nn.NewDense(16, 14, rng), &nn.ReLU{},
			nn.NewDense(14, 12, rng), &nn.ReLU{},
			nn.NewDense(12, 8, rng), &nn.ReLU{},
			nn.NewDense(8, 4, rng),
		}}
}

// noisyEngine maps the network with the default (noisy) device model, so
// the invariance test exercises real per-layer noise streams, not just
// deterministic arithmetic.
func noisyEngine(t testing.TB) *accel.Engine {
	t.Helper()
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	eng, err := accel.Map(noisyNet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func poolConfig(n int) Config {
	return Config{N: n, Replicas: replica.Config{
		N:       2,
		Monitor: fault.MonitorConfig{Window: 4096, MinReads: 8, TripRate: 0.05},
	}}
}

func testInput(seed uint64) *nn.Tensor {
	rng := rand.New(rand.NewPCG(seed, 9))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	return nn.FromSlice(x, 16)
}

// forward runs one routed pass of a lone image under stream: a batch of one.
func forward(t *testing.T, ses *Session, stream uint64, x *nn.Tensor) *nn.Tensor {
	t.Helper()
	outs, errs := ses.ForwardBatch([]*nn.Tensor{x}, []uint64{stream})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	return outs[0]
}

// TestShardCountInvariance pins the tentpole contract: a prediction is a
// pure function of (engine config, request stream, input) and does not
// depend on how many shards the layers are sliced across — serially and
// through the batched path, which must also match the serial path bit for
// bit.
func TestShardCountInvariance(t *testing.T) {
	streams := []uint64{1, 2, 3, 11, 99, 1 << 33}
	var ref map[uint64][]float64
	for _, n := range []int{1, 2, 4} {
		pool, err := NewPool(noisyEngine(t), poolConfig(n))
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		ses := pool.NewSession(1)
		serial := make(map[uint64][]float64, len(streams))
		for _, stream := range streams {
			serial[stream] = append([]float64(nil), forward(t, ses, stream, testInput(stream)).Data...)
		}
		if ref == nil {
			ref = serial
		} else {
			for _, stream := range streams {
				if !equalF64(serial[stream], ref[stream]) {
					t.Fatalf("%d shards: stream %d diverged from 1-shard output\n got %v\nwant %v",
						n, stream, serial[stream], ref[stream])
				}
			}
		}
		// Batched: same streams coalesced into one multi-image pass.
		xs := make([]*nn.Tensor, len(streams))
		for i, stream := range streams {
			xs[i] = testInput(stream)
		}
		outs, errs := ses.ForwardBatch(xs, streams)
		for i, stream := range streams {
			if errs[i] != nil {
				t.Fatalf("%d shards: batched stream %d: %v", n, stream, errs[i])
			}
			if !equalF64(outs[i].Data, ref[stream]) {
				t.Fatalf("%d shards: batched stream %d diverged from serial\n got %v\nwant %v",
					n, stream, outs[i].Data, ref[stream])
			}
		}
	}
}

// TestDrainRepairRejoin walks one shard through the maintenance lifecycle
// while a sibling keeps serving from hardware, and checks the lifecycle is
// observable in Status.
func TestDrainRepairRejoin(t *testing.T) {
	pool, err := NewPool(noisyEngine(t), poolConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sh := pool.Shard(0)
	if got := sh.State(); got != Serving {
		t.Fatalf("fresh shard state = %v", got)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sh.State(); got != Draining {
		t.Fatalf("state after drain = %v", got)
	}
	st := sh.Status()
	if len(st.DegradedLayers) != len(sh.Layers()) {
		t.Fatalf("drained shard degrades %v of layers %v", st.DegradedLayers, sh.Layers())
	}
	// Traffic still answers while drained: the shard's layers run software.
	ses := pool.NewSession(1)
	if out := forward(t, ses, 42, testInput(42)); len(out.Data) != 4 {
		t.Fatalf("drained forward returned %d outputs", len(out.Data))
	}
	// Sibling untouched.
	if got := pool.Shard(1).State(); got != Serving {
		t.Fatalf("sibling state = %v", got)
	}
	if dl := pool.Shard(1).Status().DegradedLayers; len(dl) != 0 {
		t.Fatalf("sibling degraded layers = %v", dl)
	}
	dirty, err := sh.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 0 {
		t.Fatalf("repair left %d dirty layers on healthy hardware", dirty)
	}
	// The repair leaves the shard on software until Rejoin: every layer
	// stays degraded and a pass reads none of them from crossbars.
	if dl := sh.Status().DegradedLayers; !slices.Equal(dl, sh.Layers()) {
		t.Fatalf("repaired, still drained shard degrades %v of layers %v", dl, sh.Layers())
	}
	perLayer := map[int]accel.Stats{}
	ses.DrainBatchLayerStatsInto(0, perLayer) // drop the earlier passes' tallies
	forward(t, ses, 44, testInput(44))
	ses.DrainBatchLayerStatsInto(0, perLayer)
	for _, li := range sh.Layers() {
		if st := perLayer[li]; st.RowReads != 0 || st.SoftMVMs == 0 {
			t.Fatalf("drained layer %d after repair: %d crossbar row reads, %d software MVMs", li, st.RowReads, st.SoftMVMs)
		}
	}
	if err := sh.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if got := sh.State(); got != Serving {
		t.Fatalf("state after rejoin = %v", got)
	}
	st = sh.Status()
	if st.Drains != 1 || st.Repairs != 1 || st.Rejoins != 1 {
		t.Fatalf("lifecycle counters = drains %d repairs %d rejoins %d", st.Drains, st.Repairs, st.Rejoins)
	}
	if st.Remaps == 0 {
		t.Fatal("repair performed no remaps")
	}
	if len(st.DegradedLayers) != 0 {
		t.Fatalf("rejoined shard still degrades %v", st.DegradedLayers)
	}
	if out := forward(t, ses, 43, testInput(43)); len(out.Data) != 4 {
		t.Fatalf("rejoined forward returned %d outputs", len(out.Data))
	}
}

// TestSnapshotRoundTrip pins pool persistence: snapshot, mutate, restore,
// and the pre-mutation state is back.
func TestSnapshotRoundTrip(t *testing.T) {
	pool, err := NewPool(noisyEngine(t), poolConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Shard(1).Drain(); err != nil {
		t.Fatal(err)
	}
	snap := pool.Snapshot()
	if err := pool.Shard(1).Rejoin(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := pool.Shard(1).State(); got != Draining {
		t.Fatalf("restored shard 1 state = %v, want draining", got)
	}
	if got := pool.Shard(0).State(); got != Serving {
		t.Fatalf("restored shard 0 state = %v, want serving", got)
	}
}

// TestRestoreRefusesTopologyChange pins the satellite contract: a snapshot
// taken at M shards is refused cleanly by a pool partitioned at M' != M.
func TestRestoreRefusesTopologyChange(t *testing.T) {
	at2, err := NewPool(noisyEngine(t), poolConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	at4, err := NewPool(noisyEngine(t), poolConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	snap := at2.Snapshot()
	err = at4.Restore(snap)
	if err == nil {
		t.Fatal("4-shard pool accepted a 2-shard snapshot")
	}
	if !strings.Contains(err.Error(), "topology") {
		t.Fatalf("refusal does not name the topology change: %v", err)
	}
	// The refused pool still serves, untouched.
	for i := 0; i < at4.Size(); i++ {
		if got := at4.Shard(i).State(); got != Serving {
			t.Fatalf("shard %d state after refusal = %v", i, got)
		}
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
