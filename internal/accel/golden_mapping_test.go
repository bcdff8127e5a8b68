package accel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/nn"
)

var updateMappingGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_mapping.json")

const goldenMappingPath = "testdata/golden_mapping.json"

// goldenMappingCase is one configuration's pinned mapping: a digest of
// everything captureMapping reads back (arrays, codes, fault tables, verify
// accounting, row counts) plus the per-layer verify tallies and row counts
// in readable form, so a drift names the stream that moved.
type goldenMappingCase struct {
	Name         string                 `json:"name"`
	Digest       string                 `json:"digest"`
	Verify       []crossbar.VerifyTally `json:"verify"`
	PhysicalRows []int                  `json:"physical_rows"`
}

type goldenMappingFile struct {
	Note  string              `json:"note"`
	Cases []goldenMappingCase `json:"cases"`
}

// goldenMappingCases maps TestMapWorkerInvariance's two-layer net under its
// scheme families with spares, stuck cells and write-verify on, plus 3-
// and 4-bit cells (3-bit slices straddle 64-bit limbs), and digests each
// mapping.
func goldenMappingCases(t *testing.T) []goldenMappingCase {
	t.Helper()
	rng := rand.New(rand.NewPCG(14, 14))
	net := &nn.Network{Name: "mapinv", InShape: []int{300},
		Layers: []nn.Layer{nn.NewDense(300, 56, rng), &nn.ReLU{}, nn.NewDense(56, 10, rng)}}
	var out []goldenMappingCase
	for _, tc := range []struct {
		s    Scheme
		bits int
	}{{SchemeNoECC(), 2}, {SchemeStatic128(), 2}, {SchemeABN(8), 2}, {SchemeABN(9), 2}, {SchemeABN(9), 3}, {SchemeABN(9), 4}} {
		cfg := DefaultConfig(tc.s)
		cfg.Device.BitsPerCell = tc.bits
		cfg.Device.FailureRate = 0.001
		if tc.bits == 4 {
			cfg.Device.GiantProneProb *= 10
		}
		cfg.SpareRows = 2
		cfg.VerifyIters = 5
		eng, err := Map(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		layers := captureMapping(t, eng)
		c := goldenMappingCase{Name: fmt.Sprintf("%s/bits=%d", tc.s.Name, tc.bits)}
		// %+v prints unexported fields too, and the captured state holds
		// no map or pointer, so equal mappings give equal text.
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", layers)))
		c.Digest = hex.EncodeToString(sum[:])
		for _, l := range layers {
			c.Verify = append(c.Verify, l.Verify)
			c.PhysicalRows = append(c.PhysicalRows, l.PhysicalRows)
		}
		out = append(out, c)
	}
	return out
}

// TestGoldenMapping pins both mapping streams — the fault-injection draws
// and the write-verify draws — against a digest recorded before the
// program phase moved onto the build workers, at GOMAXPROCS 1, 2 and 4.
// Regenerate (only for an intentional, documented model change) with:
//
//	go test ./internal/accel -run TestGoldenMapping -update-golden
func TestGoldenMapping(t *testing.T) {
	var ref []goldenMappingCase
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := goldenMappingCases(t)
		runtime.GOMAXPROCS(prev)
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d mapping differs from GOMAXPROCS=1:\n got %+v\nwant %+v", procs, got, ref)
		}
	}
	for _, c := range ref {
		pulses, cells := uint64(0), uint64(0)
		for _, v := range c.Verify {
			pulses += v.Pulses
			cells += v.Cells
		}
		if pulses <= cells {
			t.Fatalf("%s: %d pulses over %d cells — the fixture never draws the verify stream", c.Name, pulses, cells)
		}
	}
	if *updateMappingGolden {
		f := goldenMappingFile{
			Note:  "SHA-256 of captureMapping (arrays, codes, fault tables, verify tallies, physical rows) for TestMapWorkerInvariance's net; fault and verify streams both pinned. Regenerate only for an intentional model change.",
			Cases: ref,
		}
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenMappingPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMappingPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenMappingPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want goldenMappingFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Cases) != len(ref) {
		t.Fatalf("golden has %d cases, test maps %d", len(want.Cases), len(ref))
	}
	for i, c := range ref {
		if !reflect.DeepEqual(c, want.Cases[i]) {
			t.Errorf("%s: mapping drifted from the golden\n got %+v\nwant %+v", c.Name, c, want.Cases[i])
		}
	}
}
