// Command mnnsim regenerates the tables and figures of "Making Memristive
// Neural Network Accelerators Reliable" (HPCA 2018) on the simulated
// substrate. Each subcommand reproduces one artifact:
//
//	mnnsim fig7    — 128-cell row current transient (Figure 7 / Section IV)
//	mnnsim fig10   — misclassification sweep, fault free (Figure 10)
//	mnnsim fig11   — misclassification sweep with 0.1% stuck cells (Figure 11)
//	mnnsim fig12   — MLP1 RTN sensitivity (Figure 12)
//	mnnsim table3  — MiniAlexNet top-1/top-5 (Table III)
//	mnnsim table4  — ECU area/power and overheads (Table IV, Section VIII-B)
//	mnnsim sec4    — row error-rate distribution summary (Section IV)
//	mnnsim ablate  — design-choice ablations (DESIGN.md)
//	mnnsim faults  — lifetime wear-out campaign: accuracy decay per scheme
//	                 as stuck-at and drift faults accumulate (Section III)
//	mnnsim scrub   — closed-loop lifetime study: the same campaign with and
//	                 without patrol scrubbing, comparing how long each arm
//	                 stays inside the software accuracy band
//	mnnsim replicas — spatial-redundancy lifetime study: the wear-out
//	                 campaign against serving pools with R = 1, 2, 3 replica
//	                 copies, reporting accuracy, availability, and the honest
//	                 R× hardware bill
//	mnnsim plan    — analytic SLO planner: predict accuracy per protection
//	                 config and print the cheapest per-layer ECC / replica /
//	                 spare-row / scrub plan meeting -plan-miss without a
//	                 single Monte-Carlo sweep
//	mnnsim batch   — serial vs batched forward: run the test set through the
//	                 single-image path and the multi-image bit-plane kernel,
//	                 verify bit-identical logits, and report both throughputs
//	mnnsim devices — list the named device library: every registered
//	                 resistive-cell profile with its headline parameters
//	mnnsim scenarios — environment-adaptation matrix: device x scenario
//	                 timelines (heatwave, wear-spike, burst-storm) served
//	                 with a static vs closed-loop-adaptive protection
//	                 posture, reporting which arm holds accuracy and
//	                 availability
//	mnnsim all     — everything above except faults, scrub, replicas, plan,
//	                 and scenarios
//
// -device selects a named device profile from the library for the fault,
// scrub, replica, scenario, and plan studies (default hpca2018-rram, the
// paper's Table I cell).
//
// Results print to stdout; CSVs land under -out when set.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/hwmodel"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/predict"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnnsim:", err)
		os.Exit(1)
	}
}

// flags is every mnnsim knob, parsed in place — the sweep options and the
// wear-out campaign straight into their expt and fault configs — plus what
// run resolves from them once: the replica list, and the digit workloads
// every subcommand shares (loaded on first use).
type flags struct {
	opt  expt.SweepOptions
	life fault.LifetimeParams

	device, bits, out, stateDir string
	quiet                       bool

	spareRows, verifyIters, scrubSteps int
	scrubSlack                         float64
	replicas                           string
	voteThreshold                      int

	planWorkload, planScheme       string
	planBits                       int
	planStuck, planMiss, planAvail float64

	scenarios, scenarioScheme string
	scenarioSteps             int
	scenarioStuck             float64
	batchSize                 int

	replicaList []int
	digits      []expt.Workload
}

func run(args []string) error {
	f := flags{opt: expt.DefaultSweepOptions()}
	fs := flag.NewFlagSet("mnnsim", flag.ContinueOnError)
	fs.IntVar(&f.opt.Images, "images", 300, "test images per Monte-Carlo cell")
	fs.IntVar(&f.opt.Train.Train, "train", 4000, "training examples per dataset")
	fs.IntVar(&f.opt.Train.Epochs, "epochs", 5, "training epochs")
	fs.Uint64Var(&f.opt.Seed, "seed", 1, "experiment seed")
	fs.StringVar(&f.device, "device", noise.DefaultDeviceName,
		"named device profile for the lifetime/scenario/plan studies (list with: mnnsim devices)")
	fs.IntVar(&f.opt.Workers, "workers", 0, "Monte-Carlo worker goroutines per cell (0 = GOMAXPROCS)")
	fs.StringVar(&f.bits, "bits", "1,2,3,4,5", "comma-separated bits-per-cell sweep")
	fs.StringVar(&f.out, "out", "", "directory for CSV outputs (optional)")
	fs.StringVar(&f.opt.Train.CacheDir, "cache", "testdata/weights", "trained-weight cache directory")
	fs.BoolVar(&f.quiet, "q", false, "suppress progress lines")
	fs.IntVar(&f.life.Steps, "fault-steps", 4, "faults: lifetime steps in the wear-out campaign")
	fs.Float64Var(&f.life.StuckPerStep, "fault-stuck", 0.001, "faults: new stuck-cell probability per cell per step")
	fs.Float64Var(&f.life.LRSFrac, "fault-lrs", 0.7, "faults: fraction of stuck faults pinned at LRS")
	fs.IntVar(&f.life.DriftEvery, "fault-drift-every", 2, "faults: drift wave every N steps (0 disables)")
	fs.Float64Var(&f.life.DriftRate, "fault-drift-rate", 0.002, "faults: per-cell drift probability per wave")
	fs.StringVar(&f.stateDir, "state-dir", "", "faults: checkpoint aged arrays + campaign cursor per step and resume interrupted campaigns from there (empty disables)")
	fs.IntVar(&f.spareRows, "spare-rows", 8, "scrub: spare lines per array available for sparing")
	fs.IntVar(&f.verifyIters, "verify-iters", 5, "scrub: max write-verify pulses per programmed cell")
	fs.IntVar(&f.scrubSteps, "scrub-steps", 6, "scrub: lifetime steps in the scrub-on/off comparison")
	fs.Float64Var(&f.scrubSlack, "scrub-slack", 0.05, "scrub: allowed miss-rate excess over the software baseline")
	fs.StringVar(&f.replicas, "replicas", "1,2,3", "replicas: comma-separated R values to sweep")
	fs.IntVar(&f.voteThreshold, "vote-threshold", 3, "replicas: consecutive flagged reads before majority voting (0 disables)")
	fs.StringVar(&f.planWorkload, "plan-workload", "MLP1", "plan: network to plan protection for (MLP1|MLP2|CNN1)")
	fs.StringVar(&f.planScheme, "plan-scheme", "ABN-9", "plan: currently deployed scheme anchoring the search")
	fs.IntVar(&f.planBits, "plan-bits", 2, "plan: bits per cell")
	fs.Float64Var(&f.planStuck, "plan-stuck", 0.001, "plan: stuck-cell failure rate")
	fs.Float64Var(&f.planMiss, "plan-miss", 0.05, "plan: misclassification-rate SLO ceiling")
	fs.Float64Var(&f.planAvail, "plan-availability", 0.999, "plan: availability SLO floor (0 disables the replication search)")
	fs.StringVar(&f.scenarios, "scenarios", "", fmt.Sprintf("scenarios: comma-separated timeline names (empty = all: %v)", scenario.Names()))
	fs.IntVar(&f.scenarioSteps, "scenario-steps", 6, "scenarios: lifetime steps per matrix cell")
	fs.StringVar(&f.scenarioScheme, "scenario-scheme", "ABN-9", "scenarios: protection scheme for the matrix")
	fs.Float64Var(&f.scenarioStuck, "scenario-stuck", 5e-7, "scenarios: per-cell stuck arrival probability per step that the wear windows multiply (breaker-armed serving needs far gentler wear than -fault-stuck)")
	fs.IntVar(&f.batchSize, "batch-size", 16, "batch: images per multi-image forward pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (fig7|fig10|fig11|fig12|table3|table4|sec4|ablate|budget|plan|batch|faults|scrub|replicas|devices|scenarios|all)")
	}

	dev, err := noise.Device(f.device)
	if err != nil {
		return err
	}
	f.opt.Device = dev
	f.opt.Train.Seed = f.opt.Seed + 41
	f.opt.Train.Log = os.Stderr
	if !f.quiet {
		f.opt.Progress = expt.Progress{W: os.Stderr}
	}
	if f.opt.Bits, err = ints("bits", f.bits); err != nil {
		return err
	}
	if f.replicaList, err = ints("replicas", f.replicas); err != nil {
		return err
	}

	cmds := fs.Args()
	if len(cmds) == 1 && cmds[0] == "all" {
		cmds = []string{"fig7", "sec4", "table4", "fig10", "fig11", "fig12", "table3", "ablate"}
	}
	for _, cmd := range cmds {
		if err := dispatch(cmd, &f); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	return nil
}

// workloads returns the digit workloads, trained or loaded at most once
// per invocation.
func (f *flags) workloads() ([]expt.Workload, error) {
	if f.digits == nil {
		ws, err := expt.DigitWorkloads(f.opt.Train)
		if err != nil {
			return nil, err
		}
		f.digits = ws
	}
	return f.digits, nil
}

// dev is the selected device profile at the given cell precision.
func (f *flags) dev(bits int) noise.DeviceParams {
	d := f.opt.Device
	d.BitsPerCell = bits
	return d
}

func dispatch(cmd string, f *flags) error {
	opt := f.opt
	switch cmd {
	case "devices":
		fmt.Printf("\nNamed device library (-device NAME)\n")
		fmt.Printf("%-16s %5s %10s %10s %6s %8s %10s  %s\n",
			"name", "bits", "RLo", "RHi", "PRTN", "temp K", "sample", "description")
		for _, e := range noise.Devices() {
			name := e.Name
			if name == noise.DefaultDeviceName {
				name += "*"
			}
			fmt.Printf("%-16s %5d %10.3g %10.3g %6.3g %8.0f %10.3g  %s\n",
				name, e.Params.BitsPerCell, e.Params.RLo, e.Params.RHi,
				e.Params.PRTN, e.Params.TempK, e.Params.SampleFreq, e.Description)
		}
		fmt.Printf("(* = default, the paper's Table I cell)\n")
		return nil
	case "scenarios":
		sch, err := accel.ParseScheme(f.scenarioScheme)
		if err != nil {
			return err
		}
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		// The matrix runs its own stuck-only wear, far gentler than
		// -fault-stuck: with the reactive ladder's breakers armed, one
		// stuck cell flags its whole column group on every read, so the
		// usable arrival range is ~1e-6..1e-5 per cell per step — the
		// band where patrol cadence (the controller's knob) decides
		// whether a layer's accumulated damage crosses the trip rate.
		// Drift stays off: wave rates big enough to move accuracy flag
		// effectively every group and trip every breaker instantly.
		cfg := expt.ScenarioSweepConfig{
			// The matrix always spans the default three-device contrast;
			// an explicitly chosen fourth profile joins it.
			Devices:   []string{noise.DefaultDeviceName, "high-rtn", "pcm-drift"},
			Scheme:    sch,
			Scenarios: splitCSV(f.scenarios),
			Images:    opt.Images,
			Seed:      opt.Seed,
			Steps:     f.scenarioSteps,
			Lifetime: fault.LifetimeParams{
				StuckPerStep: f.scenarioStuck,
				LRSFrac:      f.life.LRSFrac,
			},
		}
		if !slices.Contains(cfg.Devices, f.device) {
			cfg.Devices = append(cfg.Devices, f.device)
		}
		points, err := expt.RunScenarioSweep(workloads[0], cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderScenarios(os.Stdout, points)
		return f.writeCSV("scenarios.csv", func(w io.Writer) error {
			return expt.WriteScenariosCSV(w, points)
		})
	case "fig7":
		res, err := expt.RunFig7(circuit.DefaultConfig())
		if err != nil {
			return err
		}
		expt.RenderFig7(os.Stdout, res)
		return f.writeCSV("fig7.csv", func(w io.Writer) error {
			return expt.WriteFig7CSV(w, res)
		})
	case "sec4":
		cfg := circuit.DefaultConfig()
		cfg.Duration = 2.0
		res, err := expt.RunFig7(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("\nSection IV row error distribution (2 s transient)\n")
		fmt.Printf("total %.2f%%  high %.2f%%  low %.2f%%  (paper: 14.5%%, 13.9%%, 0.51%%)\n",
			100*res.TotalRate, 100*res.HighRate, 100*res.LowRate)
		return nil
	case "fig10", "fig11":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		sweep := expt.RunFig10
		if cmd == "fig11" {
			sweep = expt.RunFig11
		}
		cells, err := sweep(workloads, opt)
		if err != nil {
			return err
		}
		expt.RenderSweep(os.Stdout, cells)
		return f.writeCSV(cmd+".csv", func(w io.Writer) error {
			return expt.WriteSweepCSV(w, cells)
		})
	case "fig12":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		pts, err := expt.RunFig12(workloads, opt)
		if err != nil {
			return err
		}
		expt.RenderFig12(os.Stdout, pts)
		return nil
	case "table3":
		res, err := expt.RunTable3(opt)
		if err != nil {
			return err
		}
		expt.RenderTable3(os.Stdout, res)
		return nil
	case "table4":
		expt.RenderTable4(os.Stdout, expt.RunTable4())
		return nil
	case "budget":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		tech := hwmodel.Default32nm()
		tile := hwmodel.DefaultTileConfig()
		spec := hwmodel.DefaultECUSpec()
		lat := hwmodel.DefaultLatencyModel()
		fmt.Printf("\nHardware budget per workload (ABN-9, 2-bit cells, 32 nm)\n")
		fmt.Printf("%-8s %8s %8s %6s %6s %12s %10s %14s\n",
			"net", "rows", "arrays", "IMAs", "tiles", "area (mm2)", "power (W)", "latency (us)")
		for _, w := range workloads {
			acfg := accel.DefaultConfig(accel.SchemeABN(9))
			eng, err := accel.Map(w.Net, acfg)
			if err != nil {
				return err
			}
			fp := tech.PlanNetwork(eng.PhysicalRows, eng.NumGroups(), tile, spec)
			reads := eng.NumGroups() * acfg.InputBits
			l := lat.InferenceLatency(reads, 0, fp.IMAs)
			fmt.Printf("%-8s %8d %8d %6d %6d %12.2f %10.2f %14.2f\n",
				w.Name, fp.PhysicalRows, fp.Arrays, fp.IMAs, fp.Tiles,
				fp.Area.AreaMM2, fp.Area.PowerMW/1000, l*1e6)
		}
		fmt.Printf("\ninference-only lifetime at weekly reprogramming, 1e6 endurance: %.0f years\n",
			hwmodel.SystemLifetimeYears(1e6, 1.0/7))
		return nil
	case "plan":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		var w *expt.Workload
		for i := range workloads {
			if strings.EqualFold(workloads[i].Name, f.planWorkload) {
				w = &workloads[i]
				break
			}
		}
		if w == nil {
			return fmt.Errorf("plan: unknown workload %q", f.planWorkload)
		}
		sch, err := accel.ParseScheme(f.planScheme)
		if err != nil {
			return err
		}
		acfg := accel.DefaultConfig(sch)
		acfg.Device = f.dev(f.planBits)
		acfg.Device.FailureRate = f.planStuck
		acfg.DeviceName = f.device
		acfg.Seed = opt.Seed
		test := w.Test
		if opt.Images > 0 && opt.Images < len(test) {
			test = test[:opt.Images]
		}
		cal, err := predict.Calibrate(w.Net, test, acfg.InputBits)
		if err != nil {
			return err
		}
		plan, err := predict.BuildPlan(w.Net, cal, predict.PlannerConfig{
			Base: acfg,
			SLO:  predict.SLO{MaxMiss: f.planMiss, MinAvailability: f.planAvail},
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nProtection plan for %s (base %s, %d-bit cells, stuck %.4g)\n",
			w.Name, sch.Name, f.planBits, f.planStuck)
		fmt.Printf("SLO: miss <= %.3f", f.planMiss)
		if f.planAvail > 0 {
			fmt.Printf(", availability >= %.4f", f.planAvail)
		}
		fmt.Println()
		fmt.Printf("%-6s %-10s %10s %12s %12s %10s %6s\n",
			"layer", "scheme", "p_detect", "var_out", "area (mm2)", "power (mW)", "kappa")
		for _, lp := range plan.Layers {
			fmt.Printf("%-6d %-10s %10.3g %12.4g %12.4f %10.2f %6.2f\n",
				lp.Layer, lp.Scheme, lp.PDetect, lp.VarOut, lp.AreaMM2, lp.PowerMW, lp.Kappa)
		}
		status := "satisfied"
		if !plan.Satisfied {
			status = "NOT satisfied (best effort)"
		}
		fmt.Printf("predicted miss %.4f (logit sigma %.4g)  availability %.6f  SLO %s\n",
			plan.Predicted.Miss, plan.Predicted.LogitSigma, plan.Availability, status)
		fmt.Printf("replicas %d  spare rows %d", plan.Replicas, plan.SpareRows)
		if plan.ScrubEvery > 0 {
			fmt.Printf("  scrub every %d inferences", plan.ScrubEvery)
		}
		fmt.Printf("  area %.2f mm2  power %.2f W  (%d configs searched)\n",
			plan.Bill.Area.AreaMM2, plan.Bill.Area.PowerMW/1000, plan.Searched)
		return f.writeCSV("plan.csv", func(out io.Writer) error {
			return expt.WriteCSV(out, []string{"layer", "scheme", "p_detect", "var_out", "area_mm2", "power_mw", "kappa"}, plan.Layers,
				func(lp predict.LayerPlan) []string {
					return []string{
						strconv.Itoa(lp.Layer), lp.Scheme,
						fmt.Sprintf("%.6g", lp.PDetect),
						fmt.Sprintf("%.6g", lp.VarOut),
						fmt.Sprintf("%.6g", lp.AreaMM2),
						fmt.Sprintf("%.6g", lp.PowerMW),
						fmt.Sprintf("%.4g", lp.Kappa),
					}
				})
		})
	case "batch":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		w := workloads[0]
		acfg := accel.DefaultConfig(accel.SchemeABN(9))
		acfg.Device = f.dev(2)
		acfg.DeviceName = f.device
		acfg.Seed = opt.Seed
		eng, err := accel.Map(w.Net, acfg)
		if err != nil {
			return err
		}
		test := w.Test
		if opt.Images > 0 && opt.Images < len(test) {
			test = test[:opt.Images]
		}
		b := f.batchSize
		if b < 1 {
			b = 1
		}
		// Serial reference: one image per pass, streams 100+i.
		sess := eng.NewSession(0)
		serial := make([]*nn.Tensor, len(test))
		t0 := time.Now()
		for i, ex := range test {
			sess.Reseed(100 + uint64(i))
			serial[i] = sess.Forward(ex.Input).Clone()
		}
		serialDur := time.Since(t0)
		// Batched: the same (engine, stream) pairs through the multi-image
		// kernel, b images per pass.
		bsess := eng.NewSession(0)
		defer bsess.Close()
		var mismatches int
		t0 = time.Now()
		for lo := 0; lo < len(test); lo += b {
			hi := lo + b
			if hi > len(test) {
				hi = len(test)
			}
			xs := make([]*nn.Tensor, 0, hi-lo)
			streams := make([]uint64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				xs = append(xs, test[i].Input)
				streams = append(streams, 100+uint64(i))
			}
			outs, errs := bsess.ForwardBatch(xs, streams)
			for i := range outs {
				if errs[i] != nil {
					return fmt.Errorf("batch: image %d: %w", lo+i, errs[i])
				}
				for k, v := range outs[i].Data {
					if math.Float64bits(v) != math.Float64bits(serial[lo+i].Data[k]) {
						mismatches++
						break
					}
				}
			}
		}
		batchDur := time.Since(t0)
		fmt.Printf("\nSerial vs batched forward (%s, ABN-9, 2-bit cells, %d images, batch %d)\n",
			w.Name, len(test), b)
		fmt.Printf("serial : %8.0f ns/image  %8.0f images/sec\n",
			float64(serialDur.Nanoseconds())/float64(len(test)),
			float64(len(test))/serialDur.Seconds())
		fmt.Printf("batched: %8.0f ns/image  %8.0f images/sec  (%.2fx)\n",
			float64(batchDur.Nanoseconds())/float64(len(test)),
			float64(len(test))/batchDur.Seconds(),
			serialDur.Seconds()/batchDur.Seconds())
		if mismatches > 0 {
			return fmt.Errorf("batch: %d images diverged bit-wise from the serial path", mismatches)
		}
		fmt.Printf("bit-identity: all %d batched outputs match the serial path exactly\n", len(test))
		return nil
	case "ablate":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		res, err := expt.RunAblations(workloads[0], opt)
		if err != nil {
			return err
		}
		fmt.Printf("\nDesign-choice ablations (%s, 2-bit cells)\n", workloads[0].Name)
		for _, r := range res {
			fmt.Printf("%-12s miss=%.4f drift=%.4g corrected=%d detected=%d retries=%d\n",
				r.Name, r.Cell.MissRate(), r.Cell.Drift.Mean(),
				r.Cell.Stats.Corrected, r.Cell.Stats.Detected, r.Cell.Stats.Retries)
		}
		return nil
	case "faults":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		cfg := expt.FaultSweepConfig{
			Device:   f.dev(2),
			Schemes:  []accel.Scheme{accel.SchemeNoECC(), accel.SchemeStatic128(), accel.SchemeABN(9)},
			Images:   opt.Images,
			Seed:     opt.Seed,
			Workers:  opt.Workers,
			Lifetime: f.life,
			StateDir: f.stateDir,
		}
		points, err := expt.RunFaultCampaign(workloads[0], cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderFaults(os.Stdout, points)
		return f.writeCSV("faults.csv", func(w io.Writer) error {
			return expt.WriteFaultsCSV(w, points)
		})
	case "scrub":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		cfg := expt.ScrubSweepConfig{
			Device:      f.dev(2),
			Scheme:      accel.SchemeABN(9),
			Images:      opt.Images,
			Seed:        opt.Seed,
			Workers:     opt.Workers,
			Lifetime:    expt.DefaultScrubLifetime(f.scrubSteps),
			SpareRows:   f.spareRows,
			VerifyIters: f.verifyIters,
			BandSlack:   f.scrubSlack,
		}
		res, err := expt.RunScrubSweep(workloads[0], cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderScrub(os.Stdout, res)
		return f.writeCSV("scrub.csv", func(w io.Writer) error {
			return expt.WriteScrubCSV(w, res)
		})
	case "replicas":
		workloads, err := f.workloads()
		if err != nil {
			return err
		}
		cfg := expt.ReplicaSweepConfig{
			Device:        f.dev(2),
			Scheme:        accel.SchemeABN(9),
			Images:        opt.Images,
			Seed:          opt.Seed,
			Replicas:      f.replicaList,
			VoteThreshold: f.voteThreshold,
			SpareRows:     f.spareRows,
			Lifetime:      f.life,
		}
		points, err := expt.RunReplicaSweep(workloads[0], cfg, opt.Progress)
		if err != nil {
			return err
		}
		expt.RenderReplicas(os.Stdout, points)
		return f.writeCSV("replicas.csv", func(w io.Writer) error {
			return expt.WriteReplicasCSV(w, points)
		})
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// writeCSV writes one results file under -out; without -out it does
// nothing.
func (f *flags) writeCSV(name string, write func(io.Writer) error) error {
	if f.out == "" {
		return nil
	}
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.out, name)
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(write(file), file.Close()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// ints parses the comma-separated integer list of flag -name.
func ints(name, s string) ([]int, error) {
	var out []int
	for _, tok := range splitCSV(s) {
		var v int
		if _, err := fmt.Sscanf(tok, "%d", &v); err != nil {
			return nil, fmt.Errorf("bad -%s entry %q", name, tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
