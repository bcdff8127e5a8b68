package replica_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/shard"
)

// quietEngine maps a small network with every noise source zeroed, so any
// two healthy replicas produce bit-identical outputs and the only
// divergence a test can see is the one it injects.
func quietEngine(t testing.TB) *accel.Engine {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 3))
	net := &nn.Network{Name: "tiny", InShape: []int{16},
		Layers: []nn.Layer{nn.NewDense(16, 12, rng), &nn.ReLU{}, nn.NewDense(12, 4, rng)}}
	cfg := accel.DefaultConfig(accel.SchemeABN(8))
	cfg.Device.BitsPerCell = 2
	cfg.Device.PRTN = 0
	cfg.Device.ProgErrFrac = 0
	cfg.Device.SampleFreq = 0
	cfg.Device.GiantProneProb = 0
	cfg.Device.FailureRate = 0
	eng, err := accel.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testMonitor() fault.MonitorConfig {
	return fault.MonitorConfig{Window: 4096, MinReads: 8, TripRate: 0.05}
}

func testInput(seed uint64) *nn.Tensor {
	rng := rand.New(rand.NewPCG(seed, 9))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	return nn.FromSlice(x, 16)
}

// saturate pins every cell of one replica's layer at the top level — a
// persistent fault population no temporal retry can see past.
func saturate(t *testing.T, eng *accel.Engine, layer int) {
	t.Helper()
	err := eng.WithArrays(layer, func(arrays []*crossbar.Array) {
		for _, a := range arrays {
			top := uint8(a.NumLevels() - 1)
			for r := 0; r < a.Rows; r++ {
				for c := 0; c < a.Cols; c++ {
					a.SetStuck(r, c, top)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// reference computes the quiet-hardware forward pass on a fresh, undamaged
// engine identical to the set's primary.
func reference(t *testing.T, streams []uint64) map[uint64][]float64 {
	t.Helper()
	eng := quietEngine(t)
	sess := eng.NewSession(1)
	out := make(map[uint64][]float64, len(streams))
	for _, stream := range streams {
		sess.Reseed(stream)
		out[stream] = append([]float64(nil), sess.Forward(testInput(stream)).Data...)
	}
	return out
}

// routedSet builds a one-shard pool over eng — the pool session is the
// only routed walk — and returns it with the shard's replica set.
func routedSet(t *testing.T, eng *accel.Engine, cfg replica.Config) (*shard.Pool, *replica.Set) {
	t.Helper()
	pool, err := shard.NewPool(eng, shard.Config{N: 1, Replicas: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return pool, pool.Shard(0).Set()
}

// forward runs one routed pass of a lone image under stream: a batch of one.
func forward(t *testing.T, ses *shard.Session, stream uint64, x *nn.Tensor) *nn.Tensor {
	t.Helper()
	outs, errs := ses.ForwardBatch([]*nn.Tensor{x}, []uint64{stream})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	return outs[0]
}

// TestHealthyReplicasBitIdentical: on quiet hardware the routed output is
// bit-equal to a plain single-engine forward pass no matter which replica
// the rotation lands on, and load spreads across every copy.
func TestHealthyReplicasBitIdentical(t *testing.T) {
	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 3, Monitor: testMonitor()})
	streams := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	want := reference(t, streams)
	sess := pool.NewSession(1)
	for _, stream := range streams {
		got := forward(t, sess, stream, testInput(stream))
		for i, w := range want[stream] {
			if got.Data[i] != w {
				t.Fatalf("stream %d output %d: %g, want %g", stream, i, got.Data[i], w)
			}
		}
	}
	st := set.Status()
	var routed uint64
	for _, r := range st.Replicas {
		routed += r.Routed
	}
	if wantMVMs := uint64(len(streams) * len(eng.Layers())); routed != wantMVMs {
		t.Fatalf("routed MVMs = %d, want %d", routed, wantMVMs)
	}
	spread := 0
	for _, r := range st.Replicas {
		if r.Routed > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("rotation served %d replicas, want load on at least 2", spread)
	}
}

// TestRoutingAvoidsOpenBreaker: once a replica's per-layer breakers open,
// the router steers every MVM to its siblings.
func TestRoutingAvoidsOpenBreaker(t *testing.T) {
	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 2, Monitor: testMonitor()})
	for _, layer := range eng.Layers() {
		set.Monitor(1).ObserveOne(layer, accel.Stats{Detected: 64})
	}
	if open := set.OpenFor(eng.Layers()[0]); len(open) != 1 || open[0] != 1 {
		t.Fatalf("OpenFor = %v, want [1]", open)
	}
	sess := pool.NewSession(1)
	for stream := uint64(1); stream <= 6; stream++ {
		forward(t, sess, stream, testInput(stream))
	}
	st := set.Status()
	if st.Replicas[1].Routed != 0 {
		t.Fatalf("sick replica served %d MVMs, want 0", st.Replicas[1].Routed)
	}
	if st.Replicas[0].Routed == 0 {
		t.Fatal("healthy replica served nothing")
	}
	if len(st.Replicas[1].OpenLayers) != len(eng.Layers()) {
		t.Fatalf("status open layers = %v", st.Replicas[1].OpenLayers)
	}
}

// TestFailoverToSibling: a flagged read on a damaged replica re-executes on
// the sibling and returns the healthy answer — every output stays bit-equal
// to the clean reference even while half the rotation lands on wrecked
// hardware.
func TestFailoverToSibling(t *testing.T) {
	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 2, Monitor: testMonitor()})
	saturate(t, set.Engine(1), 0)
	streams := make([]uint64, 16)
	for i := range streams {
		streams[i] = uint64(i + 1)
	}
	want := reference(t, streams)
	sess := pool.NewSession(1)
	for _, stream := range streams {
		got := forward(t, sess, stream, testInput(stream))
		for i, w := range want[stream] {
			if got.Data[i] != w {
				t.Fatalf("stream %d output %d: %g, want %g", stream, i, got.Data[i], w)
			}
		}
	}
	if st := set.Status(); st.Replicas[1].Failovers == 0 {
		t.Fatal("no failovers recorded despite a wrecked replica in rotation")
	}
}

// TestMajorityVoteOutvotesDamagedCopy: with three replicas and a threshold
// of one flagged read, a damaged copy's answer is replaced by the
// element-wise median of the panel — the healthy value — and its deviation
// is tallied as disagreements.
func TestMajorityVoteOutvotesDamagedCopy(t *testing.T) {
	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 3, VoteThreshold: 1, Monitor: testMonitor()})
	saturate(t, set.Engine(1), 0)
	streams := make([]uint64, 12)
	for i := range streams {
		streams[i] = uint64(i + 1)
	}
	want := reference(t, streams)
	sess := pool.NewSession(1)
	for _, stream := range streams {
		got := forward(t, sess, stream, testInput(stream))
		for i, w := range want[stream] {
			if got.Data[i] != w {
				t.Fatalf("stream %d output %d: %g, want %g", stream, i, got.Data[i], w)
			}
		}
	}
	st := set.Status()
	if st.Votes == 0 {
		t.Fatal("no vote rounds despite threshold 1 and a damaged copy")
	}
	if st.Disagreements == 0 {
		t.Fatal("vote rounds tallied no disagreements from the damaged copy")
	}
}

// TestDetachAttachSemantics: detach refuses nonsense and the last copy,
// detached replicas serve nothing, and rejoin resets the replica's health
// so it re-earns trust from fresh evidence.
func TestDetachAttachSemantics(t *testing.T) {
	eng := quietEngine(t)
	pool, set := routedSet(t, eng, replica.Config{N: 2, Monitor: testMonitor()})
	if err := set.Detach(5); err == nil {
		t.Fatal("detaching a replica out of range must fail")
	}
	if err := set.Detach(0); err != nil {
		t.Fatal(err)
	}
	if set.Attached(0) || set.AttachedCount() != 1 {
		t.Fatal("replica 0 still attached after Detach")
	}
	if err := set.Detach(0); err == nil {
		t.Fatal("double-detach must fail")
	}
	if err := set.Detach(1); err == nil {
		t.Fatal("the last attached replica must not be detachable")
	}

	// Traffic keeps flowing on the sibling alone.
	sess := pool.NewSession(1)
	for stream := uint64(1); stream <= 4; stream++ {
		forward(t, sess, stream, testInput(stream))
	}
	st := set.Status()
	if st.Replicas[0].Routed != 0 {
		t.Fatalf("detached replica served %d MVMs", st.Replicas[0].Routed)
	}
	if st.Replicas[0].Detaches != 1 {
		t.Fatalf("detach count = %d, want 1", st.Replicas[0].Detaches)
	}

	// Rejoin clears the health monitor.
	set.Monitor(0).ObserveOne(0, accel.Stats{Detected: 64})
	set.Attach(0)
	if !set.Attached(0) || set.AttachedCount() != 2 {
		t.Fatal("replica 0 not attached after Attach")
	}
	if st := set.Monitor(0).State(0); st != fault.BreakerClosed {
		t.Fatalf("rejoined replica's breaker %v, want closed", st)
	}
	set.Attach(0) // idempotent
	if set.AttachedCount() != 2 {
		t.Fatal("idempotent Attach changed the attached count")
	}
}

// TestSetFallbackReachesEveryReplica: degradation is a property of the
// layer, so it must flip on every copy at once.
func TestSetFallbackReachesEveryReplica(t *testing.T) {
	eng := quietEngine(t)
	_, set := routedSet(t, eng, replica.Config{N: 2, Monitor: testMonitor()})
	if err := set.SetFallback(0, true); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < set.Size(); r++ {
		if !set.Engine(r).Fallback(0) {
			t.Fatalf("replica %d missed the set-wide degrade", r)
		}
	}
	if err := set.SetFallback(0, false); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < set.Size(); r++ {
		if set.Engine(r).Fallback(0) {
			t.Fatalf("replica %d missed the set-wide un-degrade", r)
		}
	}
}
