package expt

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/noise"
	"repro/internal/predict"
)

// SweepRow is one measured Monte-Carlo cell parsed from a results CSV
// (the files mnnsim figures writes).
type SweepRow struct {
	Workload  string
	Scheme    string
	Bits      int
	Miss      float64
	Halfwidth float64 // 95% confidence halfwidth of Miss
	Drift     float64
}

// LoadSweepCSV parses a fig10/fig11-style results CSV into sweep rows.
func LoadSweepCSV(path string) ([]SweepRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	recs, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("expt: parsing %s: %w", path, err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("expt: %s has no data rows", path)
	}
	col := make(map[string]int, len(recs[0]))
	for i, name := range recs[0] {
		col[strings.TrimSpace(name)] = i
	}
	for _, need := range []string{"workload", "scheme", "bits", "miss", "halfwidth95", "drift"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("expt: %s lacks column %q", path, need)
		}
	}
	var rows []SweepRow
	for _, rec := range recs[1:] {
		bits, err := strconv.Atoi(rec[col["bits"]])
		if err != nil {
			return nil, fmt.Errorf("expt: %s bits column: %w", path, err)
		}
		var vals [3]float64
		for i, name := range []string{"miss", "halfwidth95", "drift"} {
			if vals[i], err = strconv.ParseFloat(rec[col[name]], 64); err != nil {
				return nil, fmt.Errorf("expt: %s %s column: %w", path, name, err)
			}
		}
		rows = append(rows, SweepRow{
			Workload: rec[col["workload"]], Scheme: rec[col["scheme"]], Bits: bits,
			Miss: vals[0], Halfwidth: vals[1], Drift: vals[2],
		})
	}
	return rows, nil
}

// PredictorRow is one predicted-vs-measured validation cell.
type PredictorRow struct {
	Workload       string
	Scheme         string
	Bits           int
	FailureRate    float64
	MeasuredMiss   float64
	PredictedMiss  float64
	Halfwidth      float64
	MeasuredDrift  float64
	PredictedDrift float64
}

// MissError is the signed predicted-minus-measured miss gap.
func (r PredictorRow) MissError() float64 { return r.PredictedMiss - r.MeasuredMiss }

// PredictorValidationOptions drive one predicted-vs-measured comparison.
type PredictorValidationOptions struct {
	Train TrainOptions
	// Rows are the measured Monte-Carlo cells to predict (from
	// LoadSweepCSV); Software rows are skipped.
	Rows []SweepRow
	// FailureRate is the stuck-cell rate the measured sweep ran under
	// (0 for fig10, 0.001 for fig11).
	FailureRate float64
	// Workloads filters by name (empty = all rows).
	Workloads []string
	// Images is the calibration image budget (0 = the full test set).
	Images int
	// Seed must match the measured sweep's seed so the analytic model
	// enumerates the same fault populations and code tables.
	Seed     uint64
	Retries  int
	Progress Progress
}

// RunPredictorValidation maps each measured sweep cell's exact accelerator
// configuration (same scheme, cell precision, failure rate, and seeds as the
// Monte-Carlo sweep), runs the analytic moment propagator over it, and
// returns predicted-vs-measured rows. No Monte-Carlo inference happens here:
// the measured side comes from Rows, the predicted side from one calibration
// pass per workload plus one Moments enumeration per cell.
func RunPredictorValidation(opt PredictorValidationOptions) ([]PredictorRow, error) {
	if len(opt.Rows) == 0 {
		return nil, fmt.Errorf("expt: predictor validation needs measured rows")
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	workloads, err := DigitWorkloads(opt.Train)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]Workload, len(workloads))
	for _, w := range workloads {
		byName[w.Name] = w
	}
	schemes := make(map[string]accel.Scheme)
	for _, s := range FigureSchemes() {
		schemes[s.Name] = s
	}
	wanted := func(name string) bool {
		if len(opt.Workloads) == 0 {
			return true
		}
		for _, w := range opt.Workloads {
			if strings.EqualFold(w, name) {
				return true
			}
		}
		return false
	}

	cals := make(map[string]*predict.Calibration)
	var out []PredictorRow
	for _, row := range opt.Rows {
		if row.Scheme == SchemeSoftware || !wanted(row.Workload) {
			continue
		}
		w, ok := byName[row.Workload]
		if !ok {
			return nil, fmt.Errorf("expt: sweep row references unknown workload %q", row.Workload)
		}
		sch, ok := schemes[row.Scheme]
		if !ok {
			return nil, fmt.Errorf("expt: sweep row references unknown scheme %q", row.Scheme)
		}
		cal := cals[row.Workload]
		if cal == nil {
			if cal, err = predict.Calibrate(w.Net, clipTest(w.Test, opt.Images), accel.DefaultConfig(sch).InputBits); err != nil {
				return nil, err
			}
			cals[row.Workload] = cal
		}

		// The measured cell's engine, from EvaluateScheme's own recipe.
		dev := noise.DefaultDeviceParams()
		dev.BitsPerCell = row.Bits
		dev.FailureRate = opt.FailureRate
		eng, err := mapEngine(w, EvalConfig{Device: dev, Scheme: sch, Retries: opt.Retries, Seed: opt.Seed}.engineConfig())
		if err != nil {
			return nil, err
		}
		var noises []predict.LayerNoise
		for _, li := range eng.Layers() {
			ln, err := cal.NoiseFromMoments(li, eng.Mapped(li).Moments(cal.Alphas(li)))
			if err != nil {
				return nil, err
			}
			noises = append(noises, ln)
		}
		p := cal.Predict(noises)
		out = append(out, PredictorRow{
			Workload: row.Workload, Scheme: row.Scheme, Bits: row.Bits,
			FailureRate:  opt.FailureRate,
			MeasuredMiss: row.Miss, PredictedMiss: p.Miss, Halfwidth: row.Halfwidth,
			MeasuredDrift: row.Drift, PredictedDrift: p.Drift,
		})
		opt.Progress.Printf("%s %d-bit %-10s measured=%.4f predicted=%.4f drift %.4f/%.4f\n",
			row.Workload, row.Bits, row.Scheme, row.Miss, p.Miss, row.Drift, p.Drift)
	}
	return out, nil
}
