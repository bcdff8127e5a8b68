package persist

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/replica"
	"repro/internal/shard"
)

// FuzzSnapshotRestore is the corruption-safety contract: for arbitrary
// input bytes, Decode either returns a state tree that re-encodes to a
// valid envelope, or a typed refusal (ErrCorrupt / ErrVersion). No input
// may restore silently wrong — a payload that passes must survive a full
// decode→encode→decode round trip carrying exactly one engine-topology
// section.
func FuzzSnapshotRestore(f *testing.F) {
	// Seed the corpus with a valid envelope and near-miss mutants so the
	// fuzzer starts at the interesting boundary instead of random noise.
	valid, err := Encode(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("MNNSNAP 1 00 0\n"))
	f.Add([]byte("MNNSNAP 999 deadbeef 4\nnull"))
	f.Add([]byte{})
	sharded, err := Encode(shardState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sharded)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("untyped refusal: %v", err)
			}
			if st != nil {
				t.Fatal("refused decode still returned a state")
			}
			return
		}
		// Accepted: the invariants Decode promises must hold.
		if (st.Engine == nil) == (st.Shards == nil) {
			t.Fatalf("accepted snapshot violates exactly-one-engine-shape: engine=%v shards=%v",
				st.Engine != nil, st.Shards != nil)
		}
		// And it must round-trip: re-encoding and re-decoding yields the
		// same bytes, so nothing was silently dropped or reinterpreted.
		out, err := Encode(st)
		if err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded snapshot refused: %v", err)
		}
		out2, err := Encode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("decode→encode not a fixed point")
		}
	})
}

// shardState is sampleState in the shape serve writes: its engine moved
// under a pool of one shard with one copy.
func shardState() *State {
	st := sampleState()
	st.Shards = &shard.PoolState{Shards: []shard.ShardSnap{{
		Layers:   []int{0},
		Replicas: replica.SetState{Replicas: []replica.ReplicaState{{Attached: true, Engine: *st.Engine}}},
	}}}
	st.Engine = nil
	return st
}
