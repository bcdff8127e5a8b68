package expt

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/noise"
	"repro/internal/scrub"
	"repro/internal/stats"
)

// ScrubSweepConfig drives the closed-loop lifetime study: the same seeded
// wear-out campaign is replayed twice — once open-loop (scrub off) and once
// with a patrol scrub pass after every campaign step — and the question is
// how many steps each arm keeps the accelerator inside the software
// baseline's accuracy band.
type ScrubSweepConfig struct {
	Device      noise.DeviceParams
	Scheme      accel.Scheme
	Retries     int
	Images      int // test images evaluated per lifetime step (0 = all)
	Seed        uint64
	Workers     int // 0 = GOMAXPROCS
	Lifetime    fault.LifetimeParams
	SpareRows   int     // spare lines per array for patrol sparing
	VerifyIters int     // closed-loop programming bound (0 = default)
	BandSlack   float64 // allowed miss-rate excess over the software baseline
}

// DefaultScrubLifetime is a drift-dominated wear-out schedule: the damage
// mode patrol scrubbing repairs in place (conductance drift) arrives every
// step at a rate that breaks the open-loop arm immediately, while a thin
// stream of stuck-at faults forces row sparing. The stuck rate is set so a
// realistic spare pool can retire every arrival — online stuck cells are
// uncharacterized and interact with transient noise (one stuck error spends
// the code's whole correction budget), so any unretired population is
// catastrophic for the coded schemes regardless of scrubbing.
func DefaultScrubLifetime(steps int) fault.LifetimeParams {
	return fault.LifetimeParams{
		Steps:        steps,
		StuckPerStep: 0.00002,
		LRSFrac:      0.5,
		DriftEvery:   1,
		DriftRate:    0.02,
		DriftDelta:   1,
	}
}

// ScrubPoint is one (arm, lifetime step) measurement.
type ScrubPoint struct {
	Workload     string
	Scrub        bool
	Step         int
	StuckCells   int
	DriftedCells int
	Miss         stats.Counter
	InBand       bool
	// Patrol accounting cumulative up to this step (zero when Scrub=false).
	Totals scrub.Totals
	Stats  accel.Stats
}

// ScrubSweepResult pairs the two arms with the shared baseline band.
type ScrubSweepResult struct {
	Workload     string
	BaselineMiss float64 // software float baseline
	Band         float64 // BaselineMiss + BandSlack
	Points       []ScrubPoint
	SustainedOff int // consecutive steps from 0 inside the band, scrub off
	SustainedOn  int // same with patrol scrubbing enabled
}

// RunScrubSweep replays one seeded lifetime campaign through both arms.
// Everything is deterministic from (workload, config): the campaign events,
// the per-image noise streams, and — in the scrub arm — the patrol repair
// programming, so the sustained-step comparison is exactly reproducible.
func RunScrubSweep(w Workload, cfg ScrubSweepConfig, prog Progress) (ScrubSweepResult, error) {
	if cfg.Lifetime.Steps <= 0 {
		return ScrubSweepResult{}, fmt.Errorf("expt: scrub sweep needs Lifetime.Steps >= 1")
	}
	if cfg.BandSlack <= 0 {
		cfg.BandSlack = 0.02
	}
	sw := EvaluateSoftware(w, cfg.Images, 0)
	res := ScrubSweepResult{
		Workload:     w.Name,
		BaselineMiss: sw.Miss.Rate(),
		Band:         sw.Miss.Rate() + cfg.BandSlack,
	}
	for _, scrubOn := range []bool{false, true} {
		pts, err := runScrubArm(w, cfg, scrubOn, res.Band, prog)
		if err != nil {
			return ScrubSweepResult{}, err
		}
		sustained := sustainedSteps(pts)
		if scrubOn {
			res.SustainedOn = sustained
		} else {
			res.SustainedOff = sustained
		}
		res.Points = append(res.Points, pts...)
	}
	return res, nil
}

// runScrubArm runs one arm of the comparison: identical engine, identical
// campaign, with or without a patrol pass after each step's damage.
func runScrubArm(w Workload, cfg ScrubSweepConfig, scrubOn bool, band float64, prog Progress) ([]ScrubPoint, error) {
	evalCfg := EvalConfig{Device: cfg.Device, Scheme: cfg.Scheme, Retries: cfg.Retries,
		Images: cfg.Images, Seed: cfg.Seed, Workers: cfg.Workers}
	acfg := evalCfg.engineConfig()
	if scrubOn {
		acfg.SpareRows = cfg.SpareRows
	}
	if cfg.VerifyIters > 0 {
		acfg.VerifyIters = cfg.VerifyIters
	}
	eng, err := mapEngine(w, acfg)
	if err != nil {
		return nil, err
	}
	runner, err := fault.NewRunner(fault.LifetimeCampaign(cfg.Seed, eng.Layers(), cfg.Lifetime), eng)
	if err != nil {
		return nil, err
	}
	var sc *scrub.Scrubber
	if scrubOn {
		sc = scrub.New(eng)
	}
	var pts []ScrubPoint
	for step := 0; step <= cfg.Lifetime.Steps; step++ {
		if step > 0 {
			if _, err := runner.Advance(step); err != nil {
				return nil, err
			}
			if sc != nil {
				if _, err := sc.PatrolAll(); err != nil {
					return nil, err
				}
			}
		}
		cell := runEval(eng, w, evalCfg, stepStream(cfg.Seed, step))
		stuck, drifted := countFaults(eng)
		p := ScrubPoint{
			Workload: w.Name, Scrub: scrubOn, Step: step,
			StuckCells: stuck, DriftedCells: drifted,
			Miss: cell.Miss, InBand: cell.Miss.Rate() <= band,
			Stats: cell.Stats,
		}
		if sc != nil {
			p.Totals = sc.Totals()
		}
		pts = append(pts, p)
		prog.Printf("scrub=%-5v %s step %d/%d: stuck=%d drifted=%d miss=%.4f in-band=%v repaired=%d spared=%d\n",
			scrubOn, w.Name, step, cfg.Lifetime.Steps, stuck, drifted,
			p.Miss.Rate(), p.InBand, p.Totals.RowsRepaired, p.Totals.RowsSpared)
	}
	return pts, nil
}

// sustainedSteps counts consecutive in-band steps starting at step 0.
func sustainedSteps(pts []ScrubPoint) int {
	n := 0
	for _, p := range pts {
		if !p.InBand {
			break
		}
		n++
	}
	return n
}

// RenderScrub prints the two lifetime decay rows and the sustained-step
// verdict.
func RenderScrub(w io.Writer, res ScrubSweepResult) {
	if len(res.Points) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s lifetime with patrol scrubbing (band = software %.4f + slack -> %.4f)\n",
		res.Workload, res.BaselineMiss, res.Band)
	arms := map[bool][]ScrubPoint{}
	for _, p := range res.Points {
		arms[p.Scrub] = append(arms[p.Scrub], p)
	}
	header := fmt.Sprintf("%-10s", "arm")
	for _, p := range arms[false] {
		header += fmt.Sprintf("  step %2d", p.Step)
	}
	fmt.Fprintln(w, header)
	for _, scrubOn := range []bool{false, true} {
		name := "scrub-off"
		if scrubOn {
			name = "scrub-on"
		}
		row := fmt.Sprintf("%-10s", name)
		for _, p := range arms[scrubOn] {
			mark := ' '
			if !p.InBand {
				mark = '*'
			}
			row += fmt.Sprintf("  %6.4f%c", p.Miss.Rate(), mark)
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "(* = outside band)\nsustained steps in band: scrub-off=%d scrub-on=%d\n",
		res.SustainedOff, res.SustainedOn)
	if on := arms[true]; len(on) > 0 {
		t := on[len(on)-1].Totals
		fmt.Fprintf(w, "patrol totals: passes=%d patrolled=%d repaired=%d spared=%d uncorrectable=%d cells-reprogrammed=%d verify-giveups=%d\n",
			t.Passes, t.RowsPatrolled, t.RowsRepaired, t.RowsSpared,
			t.RowsUncorrectable, t.CellsReprogrammed, t.Verify.GaveUp)
	}
}

// WriteScrubCSV emits both arms' lifetime points as CSV.
func WriteScrubCSV(w io.Writer, res ScrubSweepResult) error {
	return WriteCSV(w, []string{"workload", "scrub", "step", "stuck_cells", "drifted_cells",
		"miss", "halfwidth95", "in_band", "rows_repaired", "rows_spared",
		"rows_uncorrectable", "cells_reprogrammed", "verify_giveups"}, res.Points,
		func(p ScrubPoint) []string {
			return []string{
				p.Workload, strconv.FormatBool(p.Scrub), strconv.Itoa(p.Step),
				strconv.Itoa(p.StuckCells), strconv.Itoa(p.DriftedCells),
				fmt.Sprintf("%.6f", p.Miss.Rate()),
				fmt.Sprintf("%.6f", p.Miss.HalfWidth95()),
				strconv.FormatBool(p.InBand),
				strconv.FormatUint(p.Totals.RowsRepaired, 10),
				strconv.FormatUint(p.Totals.RowsSpared, 10),
				strconv.FormatUint(p.Totals.RowsUncorrectable, 10),
				strconv.FormatUint(p.Totals.CellsReprogrammed, 10),
				strconv.FormatUint(p.Totals.Verify.GaveUp, 10),
			}
		})
}
