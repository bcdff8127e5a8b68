// Package persist makes the simulated hardware non-volatile: it snapshots
// the full device + protection state of a serving stack — per-array
// programmed/effective levels, row sparing, fault-campaign cursor, breaker
// windows, replica trust, scrub rotation, controller level — into a
// versioned, checksummed file written atomically, and restores it at boot
// so a restarted server resumes the exact lifetime trajectory it was killed
// in. Everything RNG-driven is reconstructed from (seed, position) cursors;
// no generator internals are serialized.
//
// The file format is a single header line
//
//	MNNSNAP <schema-version> <sha256-of-payload-hex> <payload-length>\n
//
// followed by the JSON payload. Any byte flip fails the checksum, a schema
// bump fails the version check, and both are surfaced as typed errors so
// the caller can refuse the snapshot loudly and fall back to a fresh Map.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/scrub"
	"repro/internal/shard"
)

// SchemaVersion is bumped whenever the payload layout changes
// incompatibly; older snapshots are refused, never reinterpreted. Version 2
// dropped the replica-set section: serving snapshots always carry Shards.
const SchemaVersion = 2

// magic is the header sentinel.
const magic = "MNNSNAP"

// FileName is the snapshot file inside a state directory.
const FileName = "state.snap"

// Typed refusal reasons, distinguished so the serve layer can annotate
// /healthz and the mnn_persist_* metrics with what exactly was wrong.
var (
	// ErrCorrupt means the envelope or payload failed structural or
	// checksum validation — the file is not a snapshot this code wrote.
	ErrCorrupt = errors.New("persist: corrupt snapshot")
	// ErrVersion means the envelope is intact but carries a different
	// schema version.
	ErrVersion = errors.New("persist: snapshot schema version mismatch")
)

// SchedulerState is the serving scheduler's durable counters. Served is
// the wear clock: the campaign and scenario drivers advance on it, so
// restoring it resumes the lifetime trajectory mid-flight.
type SchedulerState struct {
	Served   uint64      `json:"served"`
	Canceled uint64      `json:"canceled"`
	AutoSeed uint64      `json:"auto_seed"`
	ECC      accel.Stats `json:"ecc"`
}

// RecoveryState is the recovery ladder's lifetime rung accounting.
type RecoveryState struct {
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	Remaps    uint64 `json:"remaps"`
	Degrades  uint64 `json:"degrades"`
}

// ScrubState is the patroller's durable state: the replica rotation cursor
// plus one scrub.State per replica scrubber.
type ScrubState struct {
	Cursor    int           `json:"cursor"`
	Scrubbers []scrub.State `json:"scrubbers"`
}

// ControllerState is the closed-loop protection controller's durable core:
// the posture level and the hysteresis bookkeeping that decides the next
// transition, plus the decision accounting.
type ControllerState struct {
	Level         int               `json:"level"`
	TightenStreak int               `json:"tighten_streak"`
	RelaxStreak   int               `json:"relax_streak"`
	Cooldown      int               `json:"cooldown"`
	Ticks         uint64            `json:"ticks"`
	Decisions     map[string]uint64 `json:"decisions,omitempty"`
}

// State is the full durable state of one serving stack. Exactly one of
// Engine (a bare engine, as offline checkpoints write it) or Shards (a
// serving pool: shard count, layer slices and every copy) is set — the
// section is the topology fingerprint, so a snapshot can never be poured
// into a pool partitioned differently. Optional sections are nil when the
// corresponding subsystem was not armed.
type State struct {
	// Workload labels the snapshot for operators; the binding identity
	// checks (seed, scheme, network) live in the engine states.
	Workload   string              `json:"workload,omitempty"`
	Engine     *accel.EngineState  `json:"engine,omitempty"`
	Shards     *shard.PoolState    `json:"shards,omitempty"`
	Monitor    *fault.MonitorState `json:"monitor,omitempty"`
	Recovery   *RecoveryState      `json:"recovery,omitempty"`
	Campaign   *fault.RunnerState  `json:"campaign,omitempty"`
	Scrub      *ScrubState         `json:"scrub,omitempty"`
	Controller *ControllerState    `json:"controller,omitempty"`
	Scheduler  SchedulerState      `json:"scheduler"`
}

// Encode serializes a state tree into the checksummed envelope.
func Encode(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s %d\n", magic, SchemaVersion, hex.EncodeToString(sum[:]), len(payload))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out, nil
}

// Decode validates an envelope end to end — magic, schema version, payload
// length, checksum, JSON — and returns the state tree. Every failure maps
// to ErrCorrupt or ErrVersion.
func Decode(data []byte) (*State, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 4 {
		return nil, fmt.Errorf("%w: header has %d fields, want 4", ErrCorrupt, len(fields))
	}
	if string(fields[0]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, string(fields[0]))
	}
	version, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		return nil, fmt.Errorf("%w: unreadable schema version %q", ErrCorrupt, string(fields[1]))
	}
	if version != SchemaVersion {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build reads v%d", ErrVersion, version, SchemaVersion)
	}
	wantLen, err := strconv.Atoi(string(fields[3]))
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("%w: unreadable payload length %q", ErrCorrupt, string(fields[3]))
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), wantLen)
	}
	wantSum := make([]byte, sha256.Size)
	if n, err := hex.Decode(wantSum, fields[2]); err != nil || n != sha256.Size {
		return nil, fmt.Errorf("%w: unreadable checksum", ErrCorrupt)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var st State
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if st.Engine != nil && st.Shards != nil {
		return nil, fmt.Errorf("%w: snapshot carries more than one engine-topology section", ErrCorrupt)
	}
	if st.Engine == nil && st.Shards == nil {
		return nil, fmt.Errorf("%w: snapshot carries no engine state", ErrCorrupt)
	}
	return &st, nil
}

// Path returns the snapshot file path inside a state directory.
func Path(dir string) string { return filepath.Join(dir, FileName) }

// Save atomically writes the state snapshot into dir: the envelope goes to
// a temporary file in the same directory, is fsynced, and renamed over the
// previous snapshot, so a crash mid-write leaves either the old snapshot or
// the new one — never a torn file.
func Save(dir string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: creating state dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, FileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, Path(dir)); err != nil {
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	// Durability of the rename itself: fsync the directory when possible
	// (best-effort — some filesystems refuse directory syncs).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and validates the snapshot in dir. A missing file returns an
// error satisfying errors.Is(err, os.ErrNotExist) — the fresh-boot case —
// while a present-but-unreadable snapshot maps to ErrCorrupt/ErrVersion.
func Load(dir string) (*State, error) {
	data, err := os.ReadFile(Path(dir))
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
