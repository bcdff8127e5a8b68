package expt

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/accel"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/stats"
)

// SchemeSoftware is the sentinel name for the float forward pass baseline.
const SchemeSoftware = "Software"

// EvalConfig drives one Monte-Carlo classification cell.
type EvalConfig struct {
	Device  noise.DeviceParams
	Scheme  accel.Scheme
	Retries int
	Images  int // test images evaluated (0 = all)
	Seed    uint64
	Workers int // 0 = GOMAXPROCS
	TopK    int // additionally report top-K misclassification (0 = skip)
}

// CellResult is one (workload, scheme, device) evaluation.
type CellResult struct {
	Workload string
	Scheme   string
	Bits     int
	Miss     stats.Counter
	MissTopK stats.Counter
	// Drift is the mean absolute logit deviation from the software
	// forward pass — the silent output perturbation that remains even
	// when the argmax survives.
	Drift stats.Summary
	Stats accel.Stats
}

// MissRate returns the top-1 misclassification rate.
func (c CellResult) MissRate() float64 { return c.Miss.Rate() }

// EvaluateSoftware runs the float baseline over the test subset.
func EvaluateSoftware(w Workload, images, topK int) CellResult {
	test := clipTest(w.Test, images)
	res := CellResult{Workload: w.Name, Scheme: SchemeSoftware}
	for _, ex := range test {
		logits := w.Net.Forward(ex.Input)
		res.Miss.AddOutcome(logits.ArgMax() != ex.Label)
		if topK > 0 {
			res.MissTopK.AddOutcome(!containsLabel(logits.TopK(topK), ex.Label))
		}
	}
	return res
}

// EvaluateScheme maps the workload onto the accelerator under the scheme
// and measures misclassification over the test subset, parallelized over
// images with per-worker sessions.
func EvaluateScheme(w Workload, cfg EvalConfig) (CellResult, error) {
	return evaluateMapped(w, cfg, cfg.engineConfig())
}

// engineConfig is the harness's one engine recipe: the paper's evaluation
// configuration under the cell's scheme, device and seed, with the retry
// budget overridden only when set. Every sweep maps its engine from here and
// sets only what differs (spare rows, verify iterations, device name), so a
// sweep's engine at step 0 is EvaluateScheme's engine seed for seed.
func (c EvalConfig) engineConfig() accel.Config {
	acfg := accel.DefaultConfig(c.Scheme)
	acfg.Device = c.Device
	if c.Retries > 0 {
		acfg.Retries = c.Retries
	}
	acfg.Seed = c.Seed
	return acfg
}

// mapEngine maps the workload under a fully specified configuration.
func mapEngine(w Workload, acfg accel.Config) (*accel.Engine, error) {
	eng, err := accel.Map(w.Net, acfg)
	if err != nil {
		return nil, fmt.Errorf("expt: mapping %s under %s: %w", w.Name, acfg.Scheme.Name, err)
	}
	return eng, nil
}

// evaluateMapped runs the Monte-Carlo over a fully specified accelerator
// configuration.
func evaluateMapped(w Workload, cfg EvalConfig, acfg accel.Config) (CellResult, error) {
	eng, err := mapEngine(w, acfg)
	if err != nil {
		return CellResult{}, err
	}
	return runEval(eng, w, cfg, stepStream(cfg.Seed, 0)), nil
}

// stepStream is the noise-stream base of lifetime step step: a distinct
// block per step, so the Monte-Carlo draws are independent across the
// lifetime, and step 0 is EvaluateScheme's own base.
func stepStream(seed uint64, step int) uint64 {
	return seed*100_000 + uint64(step)*1_000_000_000
}

// runEval measures misclassification over the test subset against an
// already-mapped engine, parallelized over images with per-worker sessions.
// Image i uses noise stream streamBase+i, so results are independent of how
// images are distributed across workers; lifetime sweeps vary streamBase
// per step so every step draws fresh noise.
func runEval(eng *accel.Engine, w Workload, cfg EvalConfig, streamBase uint64) CellResult {
	test := clipTest(w.Test, cfg.Images)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(test) {
		workers = max(1, len(test))
	}

	results := make([]CellResult, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sess := eng.NewSession(cfg.Seed*1000 + uint64(wk))
			soft := w.Net.CloneForInference()
			r := &results[wk]
			for i := wk; i < len(test); i += workers {
				ex := test[i]
				sess.Reseed(streamBase + uint64(i))
				logits := sess.Forward(ex.Input)
				r.Miss.AddOutcome(logits.ArgMax() != ex.Label)
				if cfg.TopK > 0 {
					r.MissTopK.AddOutcome(!containsLabel(logits.TopK(cfg.TopK), ex.Label))
				}
				ref := soft.Forward(ex.Input)
				for j := range logits.Data {
					r.Drift.Add(abs(logits.Data[j] - ref.Data[j]))
				}
			}
			r.Stats = sess.Stats
		}(wk)
	}
	wg.Wait()

	out := CellResult{Workload: w.Name, Scheme: cfg.Scheme.Name, Bits: eng.Config().Device.BitsPerCell}
	for _, r := range results {
		out.Miss.Merge(r.Miss)
		out.MissTopK.Merge(r.MissTopK)
		out.Drift.Merge(&r.Drift)
		out.Stats.Merge(r.Stats)
	}
	return out
}

// FigureSchemes returns the seven protected configurations of Figures 10
// and 11 (the Software baseline is evaluated separately).
func FigureSchemes() []accel.Scheme {
	return []accel.Scheme{
		accel.SchemeNoECC(),
		accel.SchemeStatic16(),
		accel.SchemeStatic128(),
		accel.SchemeABN(7),
		accel.SchemeABN(8),
		accel.SchemeABN(9),
		accel.SchemeABN(10),
	}
}

func clipTest(test []nn.Example, images int) []nn.Example {
	if images <= 0 || images >= len(test) {
		return test
	}
	return test[:images]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func containsLabel(topk []int, label int) bool {
	for _, c := range topk {
		if c == label {
			return true
		}
	}
	return false
}

// Progress optionally reports experiment progress lines.
type Progress struct {
	W io.Writer
}

// Printf writes a progress line when a writer is configured.
func (p Progress) Printf(format string, args ...any) {
	if p.W != nil {
		fmt.Fprintf(p.W, format, args...)
	}
}
