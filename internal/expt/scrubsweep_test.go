package expt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
)

func scrubSweepConfig() ScrubSweepConfig {
	return ScrubSweepConfig{
		Device:      defaultDevice(2),
		Scheme:      accel.SchemeABN(8),
		Images:      30,
		Seed:        7,
		Workers:     2,
		Lifetime:    DefaultScrubLifetime(4),
		SpareRows:   4,
		VerifyIters: 5,
		BandSlack:   0.05,
	}
}

// TestScrubSweepDeterministic: the full two-arm result — every point, both
// sustained-step counts, and the patrol totals — is a pure function of
// (workload, config).
func TestScrubSweepDeterministic(t *testing.T) {
	w := tinyWorkload(t)
	cfg := scrubSweepConfig()
	cfg.Lifetime = DefaultScrubLifetime(2)
	a, err := RunScrubSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScrubSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scrub sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestScrubSweepOnOutlastsOff: under the drift-heavy default campaign the
// patrol arm stays in the software baseline band strictly longer than the
// open-loop arm — the headline claim of the scrub experiment.
func TestScrubSweepOnOutlastsOff(t *testing.T) {
	w := tinyWorkload(t)
	cfg := scrubSweepConfig()
	cfg.Lifetime.DriftRate = 0.10 // age fast so the off arm leaves the band
	res, err := RunScrubSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SustainedOn <= res.SustainedOff {
		t.Fatalf("scrub-on should outlast scrub-off: on=%d off=%d\n%+v",
			res.SustainedOn, res.SustainedOff, res.Points)
	}
	// The patrol arm must actually have repaired something to earn it.
	var on *ScrubPoint
	for i := range res.Points {
		if res.Points[i].Scrub && res.Points[i].Step == cfg.Lifetime.Steps {
			on = &res.Points[i]
		}
	}
	if on == nil || on.Totals.CellsReprogrammed == 0 {
		t.Fatalf("scrub arm reported no repairs: %+v", on)
	}
}

// TestScrubSweepRendering: table and CSV writers cover both arms.
func TestScrubSweepRendering(t *testing.T) {
	w := tinyWorkload(t)
	cfg := scrubSweepConfig()
	cfg.Lifetime = DefaultScrubLifetime(1)
	cfg.Images = 15
	res, err := RunScrubSweep(w, cfg, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	RenderScrub(&tbl, res)
	for _, want := range []string{"scrub-off", "scrub-on", "sustained steps"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, tbl.String())
		}
	}
	var csvBuf bytes.Buffer
	if err := WriteScrubCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(csvBuf.String()), "\n")
	if want := len(res.Points); lines != want {
		t.Fatalf("csv rows = %d, want %d", lines, want)
	}
	checkGolden(t, "scrub.txt", tbl.Bytes())
	checkGolden(t, "scrub.csv", csvBuf.Bytes())
}
