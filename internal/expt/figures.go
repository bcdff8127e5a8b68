package expt

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/circuit"
	"repro/internal/hwmodel"
	"repro/internal/noise"
)

// SweepOptions control the misclassification sweeps of Figures 10 and 11.
type SweepOptions struct {
	Train    TrainOptions
	Device   noise.DeviceParams
	Bits     []int
	Images   int
	Seed     uint64
	Workers  int
	Retries  int
	Progress Progress
}

// DefaultSweepOptions returns the paper's sweep shape at a laptop-scale
// image budget.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		Train:  DefaultTrainOptions(),
		Device: noise.DefaultDeviceParams(),
		Bits:   []int{1, 2, 3, 4, 5},
		Images: 300,
		Seed:   1,
	}
}

// cell is one Monte-Carlo cell of the sweep at a device point.
func (o SweepOptions) cell(dev noise.DeviceParams, sch accel.Scheme) EvalConfig {
	return EvalConfig{
		Device: dev, Scheme: sch, Retries: o.Retries,
		Images: o.Images, Seed: o.Seed, Workers: o.Workers,
	}
}

// RunFig10 reproduces Figure 10: misclassification of the digit workloads
// (MLP1/MLP2/CNN1, see DigitWorkloads) over 1-5 bits per cell under every
// scheme, fault-free.
func RunFig10(workloads []Workload, opt SweepOptions) ([]CellResult, error) {
	opt.Device.FailureRate = 0
	return runSweep(workloads, opt)
}

// RunFig11 reproduces Figure 11: the same sweep with 0.1% stuck-at cell
// faults (Table I failure rate).
func RunFig11(workloads []Workload, opt SweepOptions) ([]CellResult, error) {
	opt.Device.FailureRate = 0.001
	return runSweep(workloads, opt)
}

func runSweep(workloads []Workload, opt SweepOptions) ([]CellResult, error) {
	var out []CellResult
	for _, w := range workloads {
		sw := EvaluateSoftware(w, opt.Images, 0)
		out = append(out, sw)
		opt.Progress.Printf("%s software miss=%.4f\n", w.Name, sw.MissRate())
		for _, bits := range opt.Bits {
			dev := opt.Device
			dev.BitsPerCell = bits
			for _, sch := range FigureSchemes() {
				cell, err := EvaluateScheme(w, opt.cell(dev, sch))
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
				opt.Progress.Printf("%s %d-bit %-10s miss=%.4f (rowErr=%.2e corr=%d det=%d)\n",
					w.Name, bits, sch.Name, cell.MissRate(), cell.Stats.RowErrorRate(),
					cell.Stats.Corrected, cell.Stats.Detected)
			}
		}
	}
	return out, nil
}

// Fig12Point is one sensitivity cell of Figure 12.
type Fig12Point struct {
	Knob  string // "deltaR" or "prtn"
	Value float64
	Cells []CellResult
}

// RunFig12 reproduces Figure 12: MLP1 (taken from workloads) at 2 bits per
// cell, sweeping the RTN amplitude (RLo DeltaR/R, which scales both the
// Ielmini curve and the giant-event amplitude proportionally) and the RTN
// error-state probability (scaling both the background occupancy and the
// giant flicker rate).
func RunFig12(workloads []Workload, opt SweepOptions) ([]Fig12Point, error) {
	var mlp1 Workload
	for _, w := range workloads {
		if w.Name == "MLP1" {
			mlp1 = w
		}
	}
	if mlp1.Net == nil {
		return nil, fmt.Errorf("expt: MLP1 workload missing")
	}
	base := opt.Device
	base.BitsPerCell = 2
	var out []Fig12Point
	for _, frac := range []float64{0.014, 0.021, 0.028, 0.035, 0.042} {
		dev := base
		scale := frac / 0.028
		dev.DeltaRLoFrac = frac
		dev.GiantDeltaR = clamp01(base.GiantDeltaR * scale)
		p, err := fig12Point(mlp1, dev, "deltaR", frac, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	for _, prob := range []float64{0.17, 0.22, 0.27, 0.32, 0.37} {
		dev := base
		scale := prob / 0.27
		dev.PRTN = prob
		dev.GiantFlickerProb = clamp01(base.GiantFlickerProb * scale)
		p, err := fig12Point(mlp1, dev, "prtn", prob, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func clamp01(x float64) float64 {
	if x > 0.999 {
		return 0.999
	}
	return x
}

func fig12Point(w Workload, dev noise.DeviceParams, knob string, val float64, opt SweepOptions) (Fig12Point, error) {
	pt := Fig12Point{Knob: knob, Value: val}
	pt.Cells = append(pt.Cells, EvaluateSoftware(w, opt.Images, 0))
	for _, sch := range FigureSchemes() {
		cell, err := EvaluateScheme(w, opt.cell(dev, sch))
		if err != nil {
			return pt, err
		}
		pt.Cells = append(pt.Cells, cell)
		opt.Progress.Printf("fig12 %s=%.3g %-10s miss=%.4f\n", knob, val, sch.Name, cell.MissRate())
	}
	return pt, nil
}

// Table3Result reproduces Table III for the AlexNet stand-in.
type Table3Result struct {
	Software, Uncorrected, ABN9 CellResult
}

// RunTable3 evaluates MiniAlexNet at the paper's single design point:
// 2 bits per cell, 9 ECC bits, top-1 and top-5 misclassification.
func RunTable3(opt SweepOptions) (Table3Result, error) {
	w, err := ObjectWorkload(opt.Train)
	if err != nil {
		return Table3Result{}, err
	}
	dev := opt.Device
	dev.BitsPerCell = 2
	var res Table3Result
	res.Software = EvaluateSoftware(w, opt.Images, 5)
	opt.Progress.Printf("table3 software top1=%.4f top5=%.4f\n",
		res.Software.Miss.Rate(), res.Software.MissTopK.Rate())
	cfg := opt.cell(dev, accel.SchemeNoECC())
	cfg.TopK = 5
	res.Uncorrected, err = EvaluateScheme(w, cfg)
	if err != nil {
		return res, err
	}
	opt.Progress.Printf("table3 uncorrected top1=%.4f top5=%.4f\n",
		res.Uncorrected.Miss.Rate(), res.Uncorrected.MissTopK.Rate())
	cfg.Scheme = accel.SchemeABN(9)
	res.ABN9, err = EvaluateScheme(w, cfg)
	if err != nil {
		return res, err
	}
	opt.Progress.Printf("table3 ABN-9 top1=%.4f top5=%.4f\n",
		res.ABN9.Miss.Rate(), res.ABN9.MissTopK.Rate())
	return res, nil
}

// RunFig7 executes the Figure 7 row transient.
func RunFig7(cfg circuit.Config) (*circuit.Result, error) {
	return circuit.Run(cfg)
}

// RunTable4 evaluates the hardware model.
func RunTable4() hwmodel.Overheads {
	return hwmodel.ComputeOverheads(hwmodel.Default32nm(), hwmodel.DefaultTileConfig(), hwmodel.DefaultECUSpec())
}
