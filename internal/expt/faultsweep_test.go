package expt

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/noise"
	"repro/internal/persist"
)

func campaignFixture(t *testing.T, w Workload) (*accel.Engine, *fault.Runner, fault.LifetimeParams) {
	t.Helper()
	acfg := accel.DefaultConfig(accel.SchemeABN(8))
	acfg.Device.BitsPerCell = 2
	acfg.Seed = 11
	eng, err := accel.Map(w.Net, acfg)
	if err != nil {
		t.Fatal(err)
	}
	life := fault.LifetimeParams{Steps: 3, StuckPerStep: 0.002, DriftEvery: 1, DriftRate: 0.002}
	runner, err := fault.NewRunner(fault.LifetimeCampaign(11, eng.Layers(), life), eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, runner, life
}

// TestCampaignCheckpointResume: checkpoint an aged engine mid-campaign,
// resume onto a freshly-mapped twin, and the twin carries the same fault
// population and cursor; a checkpoint from a different campaign is refused
// with the twin left pristine.
func TestCampaignCheckpointResume(t *testing.T) {
	w := tinyWorkload(t)
	dir := t.TempDir()

	eng, runner, life := campaignFixture(t, w)
	for step := 1; step <= 2; step++ {
		if _, err := runner.Advance(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpointCampaign(dir, w.Name, eng, runner, 2); err != nil {
		t.Fatal(err)
	}

	twin, twinRunner, _ := campaignFixture(t, w)
	from, err := resumeCampaign(dir, twin, twinRunner)
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 {
		t.Fatalf("resumed at step %d, want 2", from)
	}
	wantStuck, wantDrift := countFaults(eng)
	gotStuck, gotDrift := countFaults(twin)
	if wantStuck != gotStuck || wantDrift != gotDrift {
		t.Fatalf("resumed fault population %d/%d, want %d/%d", gotStuck, gotDrift, wantStuck, wantDrift)
	}
	if twinRunner.Snapshot() != runner.Snapshot() {
		t.Fatalf("resumed cursor %+v, want %+v", twinRunner.Snapshot(), runner.Snapshot())
	}
	// The remaining lifetime lands identically on both.
	if _, err := runner.Advance(life.Steps); err != nil {
		t.Fatal(err)
	}
	if _, err := twinRunner.Advance(life.Steps); err != nil {
		t.Fatal(err)
	}
	wantStuck, wantDrift = countFaults(eng)
	gotStuck, gotDrift = countFaults(twin)
	if wantStuck != gotStuck || wantDrift != gotDrift {
		t.Fatalf("post-resume trajectory diverged: %d/%d vs %d/%d", gotStuck, gotDrift, wantStuck, wantDrift)
	}

	// A cursor from a different campaign is refused before anything is
	// applied.
	other, otherRunner, _ := campaignFixture(t, w)
	otherLife := fault.LifetimeParams{Steps: 5, StuckPerStep: 0.002}
	otherRunner, err = fault.NewRunner(fault.LifetimeCampaign(99, other.Layers(), otherLife), other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumeCampaign(dir, other, otherRunner); err == nil {
		t.Fatal("foreign checkpoint resumed silently")
	}
	if s, d := countFaults(other); s != 0 || d != 0 {
		t.Fatalf("refused resume still aged the engine: %d/%d", s, d)
	}

	// A corrupt checkpoint is refused too.
	raw, err := os.ReadFile(persist.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(persist.Path(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, freshRunner, _ := campaignFixture(t, w)
	if _, err := resumeCampaign(dir, fresh, freshRunner); err == nil {
		t.Fatal("corrupt checkpoint resumed silently")
	}
}

// TestRunFaultCampaignCheckpointed: a checkpointed sweep finishes, leaves a
// loadable per-scheme checkpoint at the final step, and a re-run resumes
// past the completed work instead of re-aging the arrays.
func TestRunFaultCampaignCheckpointed(t *testing.T) {
	w := tinyWorkload(t)
	dir := t.TempDir()
	cfg := FaultSweepConfig{
		Device:   testDevice(),
		Schemes:  []accel.Scheme{accel.SchemeABN(8)},
		Images:   6,
		Seed:     5,
		Workers:  1,
		Lifetime: fault.LifetimeParams{Steps: 2, StuckPerStep: 0.002},
		StateDir: dir,
	}
	prog := Progress{}
	points, err := RunFaultCampaign(w, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != cfg.Lifetime.Steps+1 {
		t.Fatalf("first run produced %d points, want %d", len(points), cfg.Lifetime.Steps+1)
	}
	st, err := persist.Load(dir + "/tiny-" + accel.SchemeABN(8).Name)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if int(st.Scheduler.Served) != cfg.Lifetime.Steps {
		t.Fatalf("checkpoint at step %d, want %d", st.Scheduler.Served, cfg.Lifetime.Steps)
	}

	// Second run: everything is already done — resume yields no new points.
	again, err := RunFaultCampaign(w, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("completed campaign re-measured %d points", len(again))
	}
}

// testDevice is the default device at 2 bits/cell.
func testDevice() noise.DeviceParams {
	d := noise.DefaultDeviceParams()
	d.BitsPerCell = 2
	return d
}

// TestFaultCampaignRendering: the lifetime table and CSV cover every
// (scheme, step) of a small two-scheme campaign, pinned byte for byte.
func TestFaultCampaignRendering(t *testing.T) {
	w := tinyWorkload(t)
	cfg := FaultSweepConfig{
		Device:  testDevice(),
		Schemes: []accel.Scheme{accel.SchemeNoECC(), accel.SchemeABN(8)},
		Images:  12,
		Seed:    5,
		Workers: 2,
		Lifetime: fault.LifetimeParams{
			Steps: 2, StuckPerStep: 0.002, LRSFrac: 0.7,
			DriftEvery: 1, DriftRate: 0.002, DriftDelta: 1,
		},
	}
	points, err := RunFaultCampaign(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Schemes) * (cfg.Lifetime.Steps + 1); len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	var tbl, csvBuf bytes.Buffer
	RenderFaults(&tbl, points)
	if err := WriteFaultsCSV(&csvBuf, points); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faults.txt", tbl.Bytes())
	checkGolden(t, "faults.csv", csvBuf.Bytes())
}
