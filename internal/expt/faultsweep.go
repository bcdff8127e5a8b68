package expt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/noise"
	"repro/internal/persist"
	"repro/internal/stats"
)

// FaultSweepConfig drives an open-loop lifetime study: a deterministic
// wear-out campaign degrades the mapped arrays step by step while the test
// set is re-evaluated at each step, with no recovery acting — the question
// is how each protection scheme's accuracy decays as the device ages.
type FaultSweepConfig struct {
	Device   noise.DeviceParams
	Schemes  []accel.Scheme
	Retries  int
	Images   int // test images evaluated per lifetime step (0 = all)
	Seed     uint64
	Workers  int // 0 = GOMAXPROCS
	Lifetime fault.LifetimeParams
	// StateDir, when set, checkpoints each scheme's aged arrays and campaign
	// cursor there after every lifetime step, and resumes an interrupted
	// campaign from the last completed step at the next run. A refused
	// checkpoint (corrupt, version-mismatched, or from a different
	// configuration) restarts that scheme from step 0, loudly.
	StateDir string
}

// FaultPoint is one (scheme, lifetime step) measurement.
type FaultPoint struct {
	Workload string
	Scheme   string
	Step     int
	// StuckCells and DriftedCells are the cumulative fault population
	// across every array of the mapped network at this step.
	StuckCells   int
	DriftedCells int
	Miss         stats.Counter
	// DetectedRate is the fraction of group reads the ECU flagged
	// detected-but-uncorrectable at this step — the health signal the
	// online monitor would trip on.
	DetectedRate float64
	Stats        accel.Stats
}

// RunFaultCampaign sweeps every scheme through the same seeded wear-out
// schedule. Step 0 is the pristine baseline; each later step applies that
// step's campaign events and re-measures. The campaign seed, event
// schedule, and per-image noise streams are all deterministic, so a run is
// exactly replayable from (workload, config).
func RunFaultCampaign(w Workload, cfg FaultSweepConfig, prog Progress) ([]FaultPoint, error) {
	if cfg.Lifetime.Steps <= 0 {
		return nil, fmt.Errorf("expt: fault campaign needs Lifetime.Steps >= 1")
	}
	var points []FaultPoint
	for _, sch := range cfg.Schemes {
		evalCfg := EvalConfig{Device: cfg.Device, Scheme: sch, Retries: cfg.Retries,
			Images: cfg.Images, Seed: cfg.Seed, Workers: cfg.Workers}
		eng, err := mapEngine(w, evalCfg.engineConfig())
		if err != nil {
			return nil, err
		}
		runner, err := fault.NewRunner(fault.LifetimeCampaign(cfg.Seed, eng.Layers(), cfg.Lifetime), eng)
		if err != nil {
			return nil, err
		}
		startStep := 0
		var stateDir string
		if cfg.StateDir != "" {
			stateDir = filepath.Join(cfg.StateDir, w.Name+"-"+sch.Name)
			if from, err := resumeCampaign(stateDir, eng, runner); err != nil {
				if !errors.Is(err, os.ErrNotExist) {
					prog.Printf("faults %s %s: CHECKPOINT REFUSED (%v) — restarting from step 0\n", w.Name, sch.Name, err)
				}
			} else {
				startStep = from + 1
				prog.Printf("faults %s %s: resumed from checkpoint at step %d\n", w.Name, sch.Name, from)
			}
		}
		for step := startStep; step <= cfg.Lifetime.Steps; step++ {
			if step > 0 {
				if _, err := runner.Advance(step); err != nil {
					return nil, err
				}
			}
			cell := runEval(eng, w, evalCfg, stepStream(cfg.Seed, step))
			stuck, drifted := countFaults(eng)
			p := FaultPoint{
				Workload: w.Name, Scheme: sch.Name, Step: step,
				StuckCells: stuck, DriftedCells: drifted,
				Miss: cell.Miss, DetectedRate: cell.Stats.DetectedRate(),
				Stats: cell.Stats,
			}
			points = append(points, p)
			prog.Printf("faults %s %s step %d/%d: stuck=%d drifted=%d miss=%.4f detected=%.4f\n",
				w.Name, sch.Name, step, cfg.Lifetime.Steps, stuck, drifted, p.Miss.Rate(), p.DetectedRate)
			if stateDir != "" {
				if err := checkpointCampaign(stateDir, w.Name, eng, runner, step); err != nil {
					return nil, err
				}
			}
		}
	}
	return points, nil
}

// checkpointCampaign writes one scheme's aged arrays, campaign cursor, and
// completed step into a crash-consistent snapshot.
func checkpointCampaign(dir, workload string, eng *accel.Engine, runner *fault.Runner, step int) error {
	es := eng.Snapshot()
	rs := runner.Snapshot()
	st := &persist.State{
		Workload: workload,
		Engine:   &es,
		Campaign: &rs,
		// The sweep has no served-request clock; the wear clock here is the
		// completed lifetime step.
		Scheduler: persist.SchedulerState{Served: uint64(step)},
	}
	return persist.Save(dir, st)
}

// resumeCampaign restores a checkpointed campaign in place: the engine's
// aged arrays and the runner's cursor. It returns the last completed step. A
// missing checkpoint returns os.ErrNotExist (fresh start); anything refused
// by validation leaves the pristine engine untouched.
func resumeCampaign(dir string, eng *accel.Engine, runner *fault.Runner) (int, error) {
	st, err := persist.Load(dir)
	if err != nil {
		return 0, err
	}
	if st.Engine == nil || st.Campaign == nil {
		return 0, fmt.Errorf("expt: checkpoint carries no engine+campaign state")
	}
	if err := eng.CheckRestore(*st.Engine); err != nil {
		return 0, err
	}
	// Validate the cursor against this campaign before mutating the engine,
	// so a refusal leaves everything pristine.
	cur := runner.Snapshot()
	if st.Campaign.Seed != cur.Seed || st.Campaign.Events != cur.Events {
		return 0, fmt.Errorf("expt: checkpoint belongs to a different campaign (seed %d/%d events, want %d/%d)",
			st.Campaign.Seed, st.Campaign.Events, cur.Seed, cur.Events)
	}
	if st.Campaign.Next < 0 || st.Campaign.Next > st.Campaign.Events {
		return 0, fmt.Errorf("expt: checkpoint campaign cursor %d outside [0,%d]", st.Campaign.Next, st.Campaign.Events)
	}
	if err := eng.Restore(*st.Engine); err != nil {
		return 0, err
	}
	if err := runner.Restore(*st.Campaign); err != nil {
		return 0, err // unreachable: seed and event count verified above
	}
	return int(st.Scheduler.Served), nil
}

// RenderFaults prints the lifetime decay table: one row per scheme, columns
// per lifetime step.
func RenderFaults(w io.Writer, points []FaultPoint) {
	if len(points) == 0 {
		return
	}
	stepSet := map[int]bool{}
	var schemes []string
	seen := map[string]bool{}
	byKey := map[string]FaultPoint{}
	for _, p := range points {
		stepSet[p.Step] = true
		if !seen[p.Scheme] {
			seen[p.Scheme] = true
			schemes = append(schemes, p.Scheme)
		}
		byKey[fmt.Sprintf("%s/%d", p.Scheme, p.Step)] = p
	}
	var steps []int
	for s := range stepSet {
		steps = append(steps, s)
	}
	sort.Ints(steps)

	fmt.Fprintf(w, "\n%s misclassification over lifetime (step 0 = pristine)\n", points[0].Workload)
	header := fmt.Sprintf("%-11s", "scheme")
	for _, s := range steps {
		header += fmt.Sprintf("  step %2d", s)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, sch := range schemes {
		row := fmt.Sprintf("%-11s", sch)
		for _, s := range steps {
			if p, ok := byKey[fmt.Sprintf("%s/%d", sch, s)]; ok {
				row += fmt.Sprintf("  %7.4f", p.Miss.Rate())
			} else {
				row += "      - "
			}
		}
		fmt.Fprintln(w, row)
	}
	last := steps[len(steps)-1]
	fmt.Fprintf(w, "\nfault population and ECU health at step %d:\n", last)
	for _, sch := range schemes {
		if p, ok := byKey[fmt.Sprintf("%s/%d", sch, last)]; ok {
			fmt.Fprintf(w, "%-11s stuck=%d drifted=%d detected-rate=%.4f corrected=%d detected=%d\n",
				sch, p.StuckCells, p.DriftedCells, p.DetectedRate,
				p.Stats.Corrected, p.Stats.Detected)
		}
	}
}

// WriteFaultsCSV emits the lifetime points as CSV.
func WriteFaultsCSV(w io.Writer, points []FaultPoint) error {
	return WriteCSV(w, []string{"workload", "scheme", "step", "stuck_cells", "drifted_cells",
		"miss", "halfwidth95", "detected_rate", "corrected", "detected", "retries", "residual"}, points,
		func(p FaultPoint) []string {
			return []string{
				p.Workload, p.Scheme, strconv.Itoa(p.Step),
				strconv.Itoa(p.StuckCells), strconv.Itoa(p.DriftedCells),
				fmt.Sprintf("%.6f", p.Miss.Rate()),
				fmt.Sprintf("%.6f", p.Miss.HalfWidth95()),
				fmt.Sprintf("%.6f", p.DetectedRate),
				strconv.FormatUint(p.Stats.Corrected, 10),
				strconv.FormatUint(p.Stats.Detected, 10),
				strconv.FormatUint(p.Stats.Retries, 10),
				strconv.FormatUint(p.Stats.Residual, 10),
			}
		})
}

// countFaults sums the live stuck and drifted cell populations.
func countFaults(eng *accel.Engine) (stuck, drifted int) {
	for _, layer := range eng.Layers() {
		eng.WithArrays(layer, func(arrays []*crossbar.Array) {
			for _, a := range arrays {
				stuck += a.StuckCount()
				drifted += a.DriftedCount()
			}
		})
	}
	return stuck, drifted
}
