package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/fault"
)

// sampleState builds a small but fully-populated state tree, exercising
// every optional section the envelope can carry.
func sampleState() *State {
	return &State{
		Workload: "tiny",
		Engine: &accel.EngineState{
			Seed: 7, Scheme: "abn-8", Network: "tiny",
			Layers: []accel.LayerState{{
				Layer:  0,
				Remaps: 2,
				Arrays: []crossbar.ArrayState{{
					Rows: 2, Cols: 2, BitsPerCell: 2, Phys: 3,
					Prog:   [][]uint8{{1, 2}, {3, 0}, {0, 0}},
					Eff:    [][]uint8{{1, 2}, {3, 0}, {0, 0}},
					Stuck:  []StuckCellStateAlias{{Phys: 1, Col: 0, Level: 3}},
					RowMap: []int{0, 1},
					Spared: 0,
				}},
			}},
		},
		Monitor: &fault.MonitorState{Layers: []fault.MonitorLayerState{
			{Layer: 0, Reads: 100, Detected: 3, Trips: 1},
		}},
		Recovery: &RecoveryState{Retries: 9, Remaps: 1},
		Campaign: &fault.RunnerState{Seed: 42, Events: 3, Next: 2},
		Scrub:    &ScrubState{Cursor: 1},
		Controller: &ControllerState{
			Level: 2, Cooldown: 1, Ticks: 100,
			Decisions: map[string]uint64{"tighten": 2},
		},
		Scheduler: SchedulerState{Served: 1234, Canceled: 5, AutoSeed: 77},
	}
}

// StuckCellStateAlias keeps the sample literal readable.
type StuckCellStateAlias = crossbar.StuckCellState

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState()
	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// A second Encode of the decoded tree must be byte-identical: the
	// envelope is canonical, which is what the restart drill's final-state
	// comparison relies on.
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("decode→encode is not byte-identical")
	}
	if got.Scheduler.Served != 1234 || got.Campaign.Next != 2 || got.Controller.Level != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestDecodeRefusesVersionMismatch(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Replace(data, []byte(fmt.Sprintf("MNNSNAP %d ", SchemaVersion)),
		[]byte(fmt.Sprintf("MNNSNAP %d ", SchemaVersion+1)), 1)
	if bytes.Equal(bumped, data) {
		t.Fatal("test setup: version field not found in header")
	}
	if _, err := Decode(bumped); !errors.Is(err, ErrVersion) {
		t.Fatalf("version bump: got %v, want ErrVersion", err)
	}
}

func TestDecodeRefusesCorruption(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')

	cases := map[string]func() []byte{
		"payload bit flip": func() []byte {
			d := append([]byte(nil), data...)
			d[nl+10] ^= 0x40
			return d
		},
		"checksum flip": func() []byte {
			d := append([]byte(nil), data...)
			// The checksum is the third header field; flip a hex digit.
			i := bytes.IndexByte(d, ' ') // after magic
			i += 1 + bytes.IndexByte(d[i+1:], ' ') + 2
			if d[i] == '0' {
				d[i] = '1'
			} else {
				d[i] = '0'
			}
			return d
		},
		"truncated payload": func() []byte { return data[:len(data)-3] },
		"truncated header":  func() []byte { return data[:4] },
		"empty":             func() []byte { return nil },
		"bad magic": func() []byte {
			return append([]byte("XXXSNAP"), data[len(magic):]...)
		},
		"unknown field": func() []byte {
			// Re-envelope a payload with an extra key: the checksum passes
			// but DisallowUnknownFields must refuse it.
			payload := append([]byte(nil), data[nl+1:]...)
			payload = bytes.Replace(payload, []byte(`{"workload"`), []byte(`{"smuggled":1,"workload"`), 1)
			return envelope(t, payload)
		},
		"no engine section": func() []byte {
			return envelope(t, []byte(`{"scheduler":{"served":1}}`))
		},
		"both engine sections": func() []byte {
			return envelope(t, []byte(`{"engine":{"seed":1,"scheme":"s","network":"n"},"shards":{"shards":[]},"scheduler":{}}`))
		},
	}
	for name, build := range cases {
		if _, err := Decode(build()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// envelope wraps an arbitrary payload in a structurally valid header, so
// tests can reach past the checksum into the JSON validation.
func envelope(t *testing.T, payload []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s %d\n", magic, SchemaVersion, hex.EncodeToString(sum[:]), len(payload))
	return append([]byte(header), payload...)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheduler.Served != st.Scheduler.Served {
		t.Fatalf("load: served %d, want %d", got.Scheduler.Served, st.Scheduler.Served)
	}

	// Overwrite with a newer snapshot: Save must replace atomically and
	// leave no temp files behind.
	st.Scheduler.Served = 9999
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheduler.Served != 9999 {
		t.Fatalf("second save not visible: served %d", got.Scheduler.Served)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("state dir not clean after save: %v", entries)
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	if _, err := Load(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: got %v, want os.ErrNotExist", err)
	}
}

func TestLoadRefusesTornFile(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: half the file.
	if err := os.WriteFile(Path(dir), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file: got %v, want ErrCorrupt", err)
	}
}

func TestSaveCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "state")
	if err := Save(dir, sampleState()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatal(err)
	}
}
