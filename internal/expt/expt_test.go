package expt

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/circuit"
	"repro/internal/nn"
	"repro/internal/noise"
)

// tinyWorkload builds a fast, trained-enough workload for harness tests.
func tinyWorkload(t *testing.T) Workload {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	net := &nn.Network{Name: "tiny", InShape: []int{12},
		Layers: []nn.Layer{nn.NewDense(12, 10, rng), &nn.ReLU{}, nn.NewDense(10, 3, rng)}}
	var train, test []nn.Example
	gen := func(n int) []nn.Example {
		var out []nn.Example
		for i := 0; i < n; i++ {
			x := make([]float64, 12)
			label := i % 3
			for j := range x {
				x[j] = rng.Float64() * 0.3
			}
			x[label*4] += 0.8
			out = append(out, nn.Example{Input: nn.FromSlice(x, 12), Label: label})
		}
		return out
	}
	train, test = gen(150), gen(60)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 15
	nn.Train(net, train, cfg)
	return Workload{Name: "tiny", Net: net, Test: test}
}

func TestEvaluateSoftware(t *testing.T) {
	w := tinyWorkload(t)
	cell := EvaluateSoftware(w, 0, 2)
	if cell.Scheme != SchemeSoftware || cell.Miss.Trials != len(w.Test) {
		t.Fatalf("software cell: %+v", cell)
	}
	if cell.MissRate() > 0.2 {
		t.Fatalf("tiny problem should be learnable, miss=%g", cell.MissRate())
	}
	if cell.MissTopK.Trials != len(w.Test) {
		t.Fatal("top-k not recorded")
	}
	clipped := EvaluateSoftware(w, 10, 0)
	if clipped.Miss.Trials != 10 {
		t.Fatalf("image clipping failed: %d", clipped.Miss.Trials)
	}
}

func TestEvaluateSchemeParallelMatchesSerial(t *testing.T) {
	w := tinyWorkload(t)
	run := func(workers int) CellResult {
		cell, err := EvaluateScheme(w, EvalConfig{
			Device:  defaultDevice(2),
			Scheme:  accel.SchemeABN(8),
			Images:  40,
			Seed:    7,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	serial := run(1)
	parallel := run(4)
	// Workers partition images and own RNG streams, so aggregate counts
	// must match in size; rates should agree loosely.
	if serial.Miss.Trials != parallel.Miss.Trials {
		t.Fatalf("trial counts differ: %d vs %d", serial.Miss.Trials, parallel.Miss.Trials)
	}
	if serial.Stats.RowReads == 0 || parallel.Stats.RowReads == 0 {
		t.Fatal("row reads not recorded")
	}
}

func TestEvaluateSchemeRecordsDrift(t *testing.T) {
	w := tinyWorkload(t)
	cell, err := EvaluateScheme(w, EvalConfig{
		Device: defaultDevice(5), // noisy point
		Scheme: accel.SchemeNoECC(),
		Images: 20,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Drift.N() == 0 {
		t.Fatal("drift not recorded")
	}
}

func TestFigureSchemes(t *testing.T) {
	schemes := FigureSchemes()
	if len(schemes) != 7 {
		t.Fatalf("want 7 schemes, got %d", len(schemes))
	}
	names := map[string]bool{}
	for _, s := range schemes {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"NoECC", "Static16", "Static128", "ABN-7", "ABN-8", "ABN-9", "ABN-10"} {
		if !names[want] {
			t.Errorf("missing scheme %s", want)
		}
	}
}

func TestAblationSpecs(t *testing.T) {
	specs := AblationSpecs()
	if len(specs) != 7 {
		t.Fatalf("want 7 ablations, got %d", len(specs))
	}
	for _, sp := range specs {
		if err := sp.Scheme.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
}

func TestRunAblationsOnTinyWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	w := tinyWorkload(t)
	opt := DefaultSweepOptions()
	opt.Images = 15
	res, err := RunAblations(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(AblationSpecs()) {
		t.Fatalf("got %d results", len(res))
	}
}

func TestRenderSweepAndCSV(t *testing.T) {
	cells := []CellResult{
		{Workload: "W", Scheme: SchemeSoftware},
		{Workload: "W", Scheme: "NoECC", Bits: 2},
		{Workload: "W", Scheme: "ABN-9", Bits: 2},
		{Workload: "W", Scheme: "ABN-9", Bits: 4},
	}
	cells[1].Miss.Hits, cells[1].Miss.Trials = 3, 100
	var buf bytes.Buffer
	RenderSweep(&buf, cells)
	out := buf.String()
	for _, want := range []string{"W misclassification rate", "NoECC", "ABN-9", "2-bit", "4-bit", "0.0300"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteSweepCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "workload,scheme,bits,miss") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	checkGolden(t, "sweep.csv", buf.Bytes())
	buf.Reset()
	RenderSweep(&buf, cells)
	checkGolden(t, "sweep.txt", buf.Bytes())
}

func TestRenderTable4(t *testing.T) {
	var buf bytes.Buffer
	RenderTable4(&buf, RunTable4())
	out := buf.String()
	for _, want := range []string{"Error Correction Unit", "Error Correction Table", "Chip power overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 missing %q", want)
		}
	}
}

func TestFig7RenderAndCSV(t *testing.T) {
	cfg := circuit.DefaultConfig()
	cfg.Cells = 32
	cfg.Duration = 0.01
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig7(&buf, res)
	if !strings.Contains(buf.String(), "error rate") {
		t.Fatal("fig7 summary missing error rate")
	}
	buf.Reset()
	if err := WriteFig7CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(res.Samples)+1 {
		t.Fatalf("CSV rows = %d, want %d", lines, len(res.Samples)+1)
	}
	checkGolden(t, "fig7.csv", buf.Bytes())
	buf.Reset()
	RenderFig7(&buf, res)
	checkGolden(t, "fig7.txt", buf.Bytes())
}

func TestWorkloadCaching(t *testing.T) {
	dir := t.TempDir()
	opt := TrainOptions{Seed: 5, Train: 60, Test: 20, Epochs: 1, CacheDir: dir}
	rng := rand.New(rand.NewPCG(1, 1))
	net1 := &nn.Network{Name: "cachetest", InShape: []int{4},
		Layers: []nn.Layer{nn.NewDense(4, 3, rng)}}
	var exs []nn.Example
	for i := 0; i < 30; i++ {
		exs = append(exs, nn.Example{Input: nn.FromSlice([]float64{1, 0, 0, 0}, 4), Label: i % 3})
	}
	if err := fitOrLoad(net1, exs, opt); err != nil {
		t.Fatal(err)
	}
	// Second call with a fresh net must load the cache and agree exactly.
	net2 := &nn.Network{Name: "cachetest", InShape: []int{4},
		Layers: []nn.Layer{nn.NewDense(4, 3, rand.New(rand.NewPCG(9, 9)))}}
	var logbuf bytes.Buffer
	opt.Log = &logbuf
	if err := fitOrLoad(net2, exs, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logbuf.String(), "cached") {
		t.Fatal("second fit must hit the cache")
	}
	x := nn.FromSlice([]float64{0.3, 0.1, 0.5, 0.2}, 4)
	a, b := net1.Forward(x), net2.Forward(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("cached weights differ")
		}
	}
}

func defaultDevice(bits int) noise.DeviceParams {
	d := noise.DefaultDeviceParams()
	d.BitsPerCell = bits
	return d
}

func TestClamp01(t *testing.T) {
	if clamp01(0.5) != 0.5 || clamp01(1.7) != 0.999 {
		t.Fatal("clamp01 incorrect")
	}
}

func TestRenderFig12(t *testing.T) {
	pts := []Fig12Point{{
		Knob:  "deltaR",
		Value: 0.028,
		Cells: []CellResult{{Scheme: SchemeSoftware}, {Scheme: "ABN-9", Bits: 2}},
	}}
	var buf bytes.Buffer
	RenderFig12(&buf, pts)
	out := buf.String()
	for _, want := range []string{"sensitivity", "deltaR", "ABN-9"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig12 render missing %q", want)
		}
	}
}

func TestRenderTable3(t *testing.T) {
	var r Table3Result
	r.Software.Miss.Hits, r.Software.Miss.Trials = 43, 100
	r.Software.MissTopK.Hits, r.Software.MissTopK.Trials = 20, 100
	r.Uncorrected.Miss.Trials = 100
	r.ABN9.Miss.Trials = 100
	var buf bytes.Buffer
	RenderTable3(&buf, r)
	out := buf.String()
	if !strings.Contains(out, "43.00%") || !strings.Contains(out, "Top-5") {
		t.Errorf("table3 render wrong:\n%s", out)
	}
}

func TestProgressPrintf(t *testing.T) {
	var buf bytes.Buffer
	Progress{W: &buf}.Printf("x=%d\n", 5)
	if buf.String() != "x=5\n" {
		t.Fatalf("progress wrote %q", buf.String())
	}
	Progress{}.Printf("ignored") // nil writer must not panic
}

func TestContainsLabel(t *testing.T) {
	if !containsLabel([]int{3, 1, 4}, 4) || containsLabel([]int{3, 1}, 4) {
		t.Fatal("containsLabel incorrect")
	}
}

// TestWorkerCountInvariance: per-image noise streams make the measured
// rates independent of the degree of parallelism.
func TestWorkerCountInvariance(t *testing.T) {
	w := tinyWorkload(t)
	run := func(workers int) CellResult {
		cell, err := EvaluateScheme(w, EvalConfig{
			Device:  defaultDevice(5), // noisy point so errors occur
			Scheme:  accel.SchemeABN(8),
			Images:  30,
			Seed:    11,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	a, b := run(1), run(3)
	if a.Miss.Hits != b.Miss.Hits {
		t.Fatalf("miss counts differ across worker counts: %d vs %d", a.Miss.Hits, b.Miss.Hits)
	}
	if a.Stats.RowErrors != b.Stats.RowErrors {
		t.Fatalf("row errors differ: %d vs %d", a.Stats.RowErrors, b.Stats.RowErrors)
	}
}

// TestEvaluateSchemeWorkerCountInvariance is the determinism regression the
// serving layer relies on: because sessions are reseeded per image id, the
// Monte-Carlo outcome is a pure function of (engine, seed, image) — 1 worker
// and 8 workers must produce byte-identical miss counters and ECU tallies.
func TestEvaluateSchemeWorkerCountInvariance(t *testing.T) {
	w := tinyWorkload(t)
	dev := defaultDevice(2)
	dev.FailureRate = 0.001
	run := func(workers int) CellResult {
		cell, err := EvaluateScheme(w, EvalConfig{
			Device:  dev,
			Scheme:  accel.SchemeABN(8),
			Images:  32,
			Seed:    9,
			Workers: workers,
			TopK:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	one := run(1)
	eight := run(8)
	if one.Miss != eight.Miss {
		t.Fatalf("miss counters differ across worker counts: %+v vs %+v", one.Miss, eight.Miss)
	}
	if one.MissTopK != eight.MissTopK {
		t.Fatalf("top-k counters differ: %+v vs %+v", one.MissTopK, eight.MissTopK)
	}
	if one.Stats != eight.Stats {
		t.Fatalf("ECU tallies differ: %+v vs %+v", one.Stats, eight.Stats)
	}
}
