package expt

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/noise"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ScenarioSweepConfig drives the environment-adaptation matrix: every named
// device profile crosses every named scenario timeline, and each cell runs
// twice — a static arm with a fixed protection posture, and an adaptive arm
// where the closed-loop controller retunes patrol cadence on the same step
// clock. Everything — traffic, timeline, campaign, control decisions — is a
// pure function of the seed, so a cell replays bit for bit.
type ScenarioSweepConfig struct {
	// Devices are registry names from internal/noise (default: the Table-I
	// device plus the high-RTN and PCM-drift corners).
	Devices []string
	Scheme  accel.Scheme
	// Scenarios are timeline names from internal/scenario (default: all).
	Scenarios []string
	Retries   int
	Images    int // test images served per lifetime step (0 = all)
	Seed      uint64
	// Steps is the lifetime length; the timeline spans Steps+1 entries so
	// step 0 (pre-wear baseline) has an environment too (default 6).
	Steps int
	// Lifetime is the base per-step wear the scenario's wear windows
	// multiply. Steps inside is overridden by the sweep's Steps.
	Lifetime fault.LifetimeParams
	// SpareRows per array, the patrol scrubber's repair budget (default 8).
	SpareRows int
	// TightenRate is the controller's pressure threshold for the adaptive
	// arm (default 0.01; open breakers always count as pressure).
	TightenRate float64
}

// Arm labels for the two protection postures of each matrix cell.
const (
	ArmStatic   = "static"
	ArmAdaptive = "adaptive"
)

// ScenarioPoint is one (device, scenario, arm, step) measurement.
type ScenarioPoint struct {
	Workload string
	Device   string
	Scheme   string
	Scenario string
	Arm      string
	Step     int
	Miss     stats.Counter
	// ServeErrors is the 5xx budget; SoftAnswers the requests that needed
	// the software fallback, Availability their complement.
	ServeErrors    int
	SoftAnswers    int
	Availability   float64
	DegradedLayers int
	// Level is the controller's protection level after this step (static
	// arm: always 0). PatrolPasses is how many patrol passes this step ran
	// — the adaptive arm's visible cadence tightening.
	Level        int
	PatrolPasses int
	// RowsSpared / CellsReprogrammed are the cumulative scrub repairs.
	RowsSpared        uint64
	CellsReprogrammed uint64
	// Tightens / Relaxes are the cumulative controller decisions.
	Tightens uint64
	Relaxes  uint64
	// Degrades is the cumulative rung-3 count — the accuracy the ladder
	// already conceded to the software path.
	Degrades uint64
}

func (c ScenarioSweepConfig) withDefaults() ScenarioSweepConfig {
	if len(c.Devices) == 0 {
		c.Devices = []string{noise.DefaultDeviceName, "high-rtn", "pcm-drift"}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = scenario.Names()
	}
	if c.Steps <= 0 {
		c.Steps = 6
	}
	if c.SpareRows == 0 {
		c.SpareRows = 8
	}
	if c.TightenRate == 0 {
		c.TightenRate = 0.01
	}
	return c
}

// baseScrubInterval is the static patrol cadence both arms start from. In
// manual mode the wall-clock value is only the controller's arithmetic
// anchor: passes per step = base / live interval, so level L runs 2^L
// patrol passes on the step clock.
const baseScrubInterval = 800 * time.Millisecond

// RunScenarioSweep runs the device x scenario x arm matrix.
func RunScenarioSweep(w Workload, cfg ScenarioSweepConfig, prog Progress) ([]ScenarioPoint, error) {
	cfg = cfg.withDefaults()
	if cfg.Lifetime.StuckPerStep == 0 && cfg.Lifetime.DriftRate == 0 {
		return nil, fmt.Errorf("expt: scenario sweep needs a non-trivial Lifetime")
	}
	var points []ScenarioPoint
	for _, devName := range cfg.Devices {
		dev, err := noise.Device(devName)
		if err != nil {
			return nil, err
		}
		for _, scenName := range cfg.Scenarios {
			tl, err := scenario.Generate(scenName, cfg.Seed, cfg.Steps+1)
			if err != nil {
				return nil, err
			}
			for _, arm := range []string{ArmStatic, ArmAdaptive} {
				pts, err := runScenarioArm(w, cfg, devName, dev, tl, arm, prog)
				if err != nil {
					return nil, fmt.Errorf("expt: %s/%s/%s: %w", devName, scenName, arm, err)
				}
				points = append(points, pts...)
			}
		}
	}
	return points, nil
}

// runScenarioArm runs one matrix cell: a fresh engine under the scenario's
// environment and wear timeline, served on the step clock with either a
// fixed or controller-driven protection posture.
func runScenarioArm(w Workload, cfg ScenarioSweepConfig, devName string, dev noise.DeviceParams, tl scenario.Timeline, arm string, prog Progress) ([]ScenarioPoint, error) {
	acfg := accel.DefaultConfig(cfg.Scheme)
	acfg.Device = dev
	acfg.DeviceName = devName
	if cfg.Retries > 0 {
		acfg.Retries = cfg.Retries
	}
	acfg.Seed = cfg.Seed
	acfg.SpareRows = cfg.SpareRows
	eng, err := accel.Map(w.Net, acfg)
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{
		Workers: 1, QueueDepth: 16, TopK: 1, Manual: true,
		Recovery: serve.RecoveryConfig{
			Enabled:       true,
			Monitor:       fault.MonitorConfig{Window: 2048, MinReads: 64, TripRate: 0.05},
			RetryAttempts: 1, RetryBackoff: -1, MaxRemaps: 1,
		},
		Scrub: serve.ScrubConfig{Enabled: true, Interval: baseScrubInterval},
	}
	if arm == ArmAdaptive {
		scfg.Controller = serve.ControllerConfig{
			Enabled:     true,
			TightenRate: cfg.TightenRate,
			Hysteresis:  1, Cooldown: 1, MaxLevel: 3,
		}
	}
	sched, err := serve.NewScheduler(eng, scfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	life := cfg.Lifetime
	life.Steps = cfg.Steps
	campaign := tl.ScaleCampaign(fault.LifetimeCampaign(cfg.Seed, eng.Layers(), life))
	runner, err := fault.NewRunner(campaign, eng)
	if err != nil {
		return nil, err
	}

	test := clipTest(w.Test, cfg.Images)
	var points []ScenarioPoint
	for step := 0; step <= cfg.Steps; step++ {
		// Environment first: the step's excursion retunes the live arrays,
		// then its (wear-scaled) faults land, then traffic is served.
		if err := sched.ApplyEnv(tl.At(step).Apply(dev)); err != nil {
			return nil, err
		}
		if step > 0 {
			if _, err := runner.Advance(step); err != nil {
				return nil, err
			}
		}
		p := ScenarioPoint{
			Workload: w.Name, Device: devName, Scheme: cfg.Scheme.Name,
			Scenario: tl.Spec, Arm: arm, Step: step,
		}
		streamBase := cfg.Seed*100_000 + uint64(step)*1_000_000_000
		for i, ex := range test {
			pred, err := sched.Predict(ctx, ex.Input, streamBase+uint64(i)+1, 1)
			if err != nil {
				p.ServeErrors++
				continue
			}
			p.Miss.AddOutcome(pred.Class != ex.Label)
			if pred.Stats.SoftMVMs > 0 {
				p.SoftAnswers++
			}
		}
		if n := len(test); n > 0 {
			p.Availability = float64(n-p.SoftAnswers-p.ServeErrors) / float64(n)
		}

		// Protection work on the step clock: the adaptive arm decides from
		// this step's measured traffic, then patrols at the level's cadence;
		// the static arm patrols once per step, always.
		passes := 1
		if arm == ArmAdaptive {
			if _, err := sched.ControllerTick(); err != nil {
				return nil, err
			}
			if iv := sched.ScrubInterval(); iv > 0 {
				passes = int(baseScrubInterval / iv)
			}
			if st, ok := sched.ControllerStatus(); ok {
				p.Level = st.Level
				p.Tightens = st.Decisions["tighten"]
				p.Relaxes = st.Decisions["relax"]
			}
		}
		for i := 0; i < passes; i++ {
			if err := sched.PatrolNow(); err != nil {
				return nil, err
			}
		}
		p.PatrolPasses = passes
		if st, ok := sched.ScrubStatus(); ok {
			p.RowsSpared = st.Totals.RowsSpared
			p.CellsReprogrammed = st.Totals.CellsReprogrammed
		}
		p.DegradedLayers = len(eng.DegradedLayers())
		p.Degrades = sched.RecoveryCounters().Degrades
		points = append(points, p)
		prog.Printf("scenario %s/%s/%s/%s step %d/%d: miss=%.4f avail=%.4f level=%d passes=%d spared=%d degraded=%d\n",
			w.Name, devName, tl.Spec, arm, step, cfg.Steps,
			p.Miss.Rate(), p.Availability, p.Level, p.PatrolPasses, p.RowsSpared, p.DegradedLayers)
	}
	if _, err := sched.Close(ctx); err != nil {
		return nil, err
	}
	return points, nil
}

// ScenarioVerdict compares the two arms of one (device, scenario) cell over
// the whole service life.
type ScenarioVerdict struct {
	Device, Scenario string
	// StaticMiss/AdaptiveMiss are lifetime miss rates — total wrong answers
	// over total images served across every step, not the final step alone.
	// Patrol eventually spares every damaged row, so both arms tend to
	// converge at end of life; what separates them is how much accuracy was
	// lost while damage sat unrepaired, and the lifetime fold captures
	// exactly that. StaticAvail/AdaptiveAvail are lifetime-minimum
	// availability.
	StaticMiss, AdaptiveMiss   float64
	StaticAvail, AdaptiveAvail float64
	// AdaptiveWins: the adaptive arm serves at least as accurately and at
	// least as available over the run, and strictly better on one of the two.
	AdaptiveWins bool
}

// Verdicts folds sweep points into per-cell static-vs-adaptive comparisons.
func Verdicts(points []ScenarioPoint) []ScenarioVerdict {
	type key struct{ dev, scen string }
	type acc struct {
		v                    ScenarioVerdict
		sHits, sN, aHits, aN int
	}
	cells := map[key]*acc{}
	var order []key
	for _, p := range points {
		k := key{p.Device, p.Scenario}
		c, ok := cells[k]
		if !ok {
			c = &acc{v: ScenarioVerdict{Device: p.Device, Scenario: p.Scenario,
				StaticAvail: 1, AdaptiveAvail: 1}}
			cells[k] = c
			order = append(order, k)
		}
		switch p.Arm {
		case ArmStatic:
			c.sHits += p.Miss.Hits
			c.sN += p.Miss.Trials
			if p.Availability < c.v.StaticAvail {
				c.v.StaticAvail = p.Availability
			}
		case ArmAdaptive:
			c.aHits += p.Miss.Hits
			c.aN += p.Miss.Trials
			if p.Availability < c.v.AdaptiveAvail {
				c.v.AdaptiveAvail = p.Availability
			}
		}
	}
	out := make([]ScenarioVerdict, 0, len(order))
	for _, k := range order {
		c := cells[k]
		v := c.v
		if c.sN > 0 {
			v.StaticMiss = float64(c.sHits) / float64(c.sN)
		}
		if c.aN > 0 {
			v.AdaptiveMiss = float64(c.aHits) / float64(c.aN)
		}
		notWorse := v.AdaptiveMiss <= v.StaticMiss && v.AdaptiveAvail >= v.StaticAvail
		better := v.AdaptiveMiss < v.StaticMiss || v.AdaptiveAvail > v.StaticAvail
		v.AdaptiveWins = notWorse && better
		out = append(out, v)
	}
	return out
}

// RenderScenarios prints the matrix and the static-vs-adaptive verdicts.
func RenderScenarios(w io.Writer, points []ScenarioPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s environment-adaptation matrix (%s)\n", points[0].Workload, points[0].Scheme)
	fmt.Fprintf(w, "%-14s %-12s %-9s %-5s %8s %8s %6s %7s %7s %9s\n",
		"device", "scenario", "arm", "step", "miss", "avail", "level", "passes", "spared", "degraded")
	for _, p := range points {
		fmt.Fprintf(w, "%-14s %-12s %-9s %-5d %8.4f %8.4f %6d %7d %7d %9d\n",
			p.Device, p.Scenario, p.Arm, p.Step, p.Miss.Rate(), p.Availability,
			p.Level, p.PatrolPasses, p.RowsSpared, p.DegradedLayers)
	}
	fmt.Fprintf(w, "\nservice-life verdicts (lifetime miss, lifetime-min availability):\n")
	fmt.Fprintf(w, "%-14s %-12s %10s %10s %10s %10s %9s\n",
		"device", "scenario", "miss/stat", "miss/adpt", "avail/stat", "avail/adpt", "adaptive")
	for _, v := range Verdicts(points) {
		verdict := "ties"
		if v.AdaptiveWins {
			verdict = "WINS"
		} else if v.AdaptiveMiss > v.StaticMiss || v.AdaptiveAvail < v.StaticAvail {
			verdict = "loses"
		}
		fmt.Fprintf(w, "%-14s %-12s %10.4f %10.4f %10.4f %10.4f %9s\n",
			v.Device, v.Scenario, v.StaticMiss, v.AdaptiveMiss, v.StaticAvail, v.AdaptiveAvail, verdict)
	}
}

// WriteScenariosCSV emits the sweep points as CSV.
func WriteScenariosCSV(w io.Writer, points []ScenarioPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "device", "scheme", "scenario", "arm", "step",
		"miss", "halfwidth95", "availability", "soft_answers", "serve_errors",
		"degraded_layers", "level", "patrol_passes", "rows_spared",
		"cells_reprogrammed", "tightens", "relaxes", "degrades"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			p.Workload, p.Device, p.Scheme, p.Scenario, p.Arm, strconv.Itoa(p.Step),
			fmt.Sprintf("%.6f", p.Miss.Rate()),
			fmt.Sprintf("%.6f", p.Miss.HalfWidth95()),
			fmt.Sprintf("%.6f", p.Availability),
			strconv.Itoa(p.SoftAnswers),
			strconv.Itoa(p.ServeErrors),
			strconv.Itoa(p.DegradedLayers),
			strconv.Itoa(p.Level),
			strconv.Itoa(p.PatrolPasses),
			strconv.FormatUint(p.RowsSpared, 10),
			strconv.FormatUint(p.CellsReprogrammed, 10),
			strconv.FormatUint(p.Tightens, 10),
			strconv.FormatUint(p.Relaxes, 10),
			strconv.FormatUint(p.Degrades, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
