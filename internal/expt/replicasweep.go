package expt

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/hwmodel"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ReplicaSweepConfig drives the closed-loop spatial-redundancy study: the
// same seeded wear-out campaign damages the primary copy while a serving
// pool with R = 1, 2, 3 replicas answers live traffic through its recovery
// ladder. The question is what the extra copies buy — accuracy and crossbar
// availability over the lifetime — against their honest R× area/energy
// price.
type ReplicaSweepConfig struct {
	Device  noise.DeviceParams
	Scheme  accel.Scheme
	Retries int
	Images  int // test images evaluated per lifetime step (0 = all)
	Seed    uint64
	// Replicas are the R values swept (default 1, 2, 3).
	Replicas []int
	// VoteThreshold is the consecutive-flag count at which a layer's reads
	// majority-vote across 3 replicas (0 disables voting).
	VoteThreshold int
	// SpareRows per array, so repairs have somewhere to retire rows
	// (default 8).
	SpareRows int
	Lifetime  fault.LifetimeParams
}

// ReplicaPoint is one (R, lifetime step) measurement.
type ReplicaPoint struct {
	Workload string
	Replicas int
	Step     int
	Miss     stats.Counter
	// ServeErrors counts requests answered with an error — the 5xx budget,
	// which spatial redundancy must keep at zero.
	ServeErrors int
	// SoftAnswers counts requests that needed the software fallback for at
	// least one layer; Availability is its complement — the fraction served
	// entirely from crossbars.
	SoftAnswers    int
	Availability   float64
	DegradedLayers int
	// Cumulative ladder and router activity at the end of this step.
	Failovers     uint64
	Degrades      uint64
	Votes         uint64
	Disagreements uint64
	// AreaMM2 / PowerMW are the replicated floorplan bill (constant per R).
	AreaMM2 float64
	PowerMW float64
	// EnergyPerImageJ is the measured read-path energy per image at this
	// step (row reads and group reads across every replica consulted).
	EnergyPerImageJ float64
}

// RunReplicaSweep runs the same lifetime campaign against pools of
// increasing replication. Traffic, campaign schedule, and per-image noise
// streams are all seed-derived, so a run is exactly replayable.
func RunReplicaSweep(w Workload, cfg ReplicaSweepConfig, prog Progress) ([]ReplicaPoint, error) {
	if cfg.Lifetime.Steps <= 0 {
		return nil, fmt.Errorf("expt: replica sweep needs Lifetime.Steps >= 1")
	}
	rs := cfg.Replicas
	if len(rs) == 0 {
		rs = []int{1, 2, 3}
	}
	if cfg.SpareRows == 0 {
		cfg.SpareRows = 8
	}
	test := clipTest(w.Test, cfg.Images)
	tech := hwmodel.Default32nm()
	energy := tech.Energy(hwmodel.DefaultECUSpec(), hwmodel.DefaultLatencyModel().ClockHz)

	var points []ReplicaPoint
	for _, r := range rs {
		acfg := EvalConfig{Device: cfg.Device, Scheme: cfg.Scheme, Retries: cfg.Retries, Seed: cfg.Seed}.engineConfig()
		acfg.SpareRows = cfg.SpareRows
		eng, err := mapEngine(w, acfg)
		if err != nil {
			return nil, err
		}
		mon := fault.MonitorConfig{Window: 2048, MinReads: 64, TripRate: 0.05}
		sched, err := serve.NewScheduler(eng, serve.Config{
			Workers: 1, QueueDepth: 16, TopK: 1,
			Recovery: serve.RecoveryConfig{
				Enabled: true, Monitor: mon,
				RetryAttempts: 1, RetryBackoff: -1,
			},
			Replicas: replica.Config{N: r, VoteThreshold: cfg.VoteThreshold, Monitor: mon},
		})
		if err != nil {
			return nil, err
		}
		// The campaign wears out the primary copy only — the chaos scenario
		// of one replica aging ahead of its siblings. With R=1 that copy is
		// all there is.
		runner, err := fault.NewRunner(fault.LifetimeCampaign(cfg.Seed, eng.Layers(), cfg.Lifetime), eng)
		if err != nil {
			return nil, err
		}
		fp := tech.PlanReplicatedNetwork(eng.PhysicalRows, eng.NumGroups(), hwmodel.DefaultTileConfig(), hwmodel.DefaultECUSpec(), r)

		ctx := context.Background()
		for step := 0; step <= cfg.Lifetime.Steps; step++ {
			if step > 0 {
				if _, err := runner.Advance(step); err != nil {
					return nil, err
				}
			}
			t := serveStep(ctx, sched, test, stepStream(cfg.Seed, step))
			p := ReplicaPoint{
				Workload: w.Name, Replicas: r, Step: step,
				Miss: t.miss, ServeErrors: t.serveErrors, SoftAnswers: t.softAnswers, Availability: t.availability,
				AreaMM2: fp.Area.AreaMM2, PowerMW: fp.Area.PowerMW,
			}
			if n := len(test); n > 0 {
				p.EnergyPerImageJ = energy.InferenceEnergy(t.reads) / float64(n)
			}
			p.DegradedLayers = len(eng.DegradedLayers())
			rc := sched.RecoveryCounters()
			p.Failovers, p.Degrades = rc.Failovers, rc.Degrades
			if set := sched.ReplicaSet(); set != nil {
				st := set.Status()
				p.Votes, p.Disagreements = st.Votes, st.Disagreements
			}
			points = append(points, p)
			prog.Printf("replicas %s R=%d step %d/%d: miss=%.4f avail=%.4f degraded=%d failovers=%d degrades=%d\n",
				w.Name, r, step, cfg.Lifetime.Steps, p.Miss.Rate(), p.Availability, p.DegradedLayers, p.Failovers, p.Degrades)
		}
		if _, err := sched.Close(ctx); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// servedStep is the traffic side of one lifetime step served through a
// scheduler: accuracy, the software-fallback and 5xx budgets, and the read
// counts the energy model bills.
type servedStep struct {
	miss         stats.Counter
	serveErrors  int
	softAnswers  int
	availability float64 // share answered entirely from crossbars
	reads        hwmodel.ReadCounts
}

// serveStep serves the test images through sched, image i on noise stream
// streamBase+i+1, and tallies the answers.
func serveStep(ctx context.Context, sched *serve.Scheduler, test []nn.Example, streamBase uint64) servedStep {
	var t servedStep
	for i, ex := range test {
		pred, err := sched.Predict(ctx, ex.Input, streamBase+uint64(i)+1, 1)
		if err != nil {
			t.serveErrors++
			continue
		}
		t.miss.AddOutcome(pred.Class != ex.Label)
		if pred.Stats.SoftMVMs > 0 {
			t.softAnswers++
		}
		t.reads.RowReads += pred.Stats.RowReads
		t.reads.GroupReads += pred.Stats.GroupReads()
		t.reads.Retries += pred.Stats.Retries
	}
	if n := len(test); n > 0 {
		t.availability = float64(n-t.softAnswers-t.serveErrors) / float64(n)
	}
	return t
}

// RenderReplicas prints the R-sweep summary: accuracy and availability per
// lifetime step per R, then the hardware bill.
func RenderReplicas(w io.Writer, points []ReplicaPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s spatial-redundancy sweep (campaign wears the primary copy)\n", points[0].Workload)
	fmt.Fprintf(w, "%-3s %-5s %8s %8s %9s %10s %9s %9s %6s\n",
		"R", "step", "miss", "avail", "degraded", "failovers", "degrades", "votes", "5xx")
	last := map[int]ReplicaPoint{}
	for _, p := range points {
		fmt.Fprintf(w, "%-3d %-5d %8.4f %8.4f %9d %10d %9d %9d %6d\n",
			p.Replicas, p.Step, p.Miss.Rate(), p.Availability, p.DegradedLayers,
			p.Failovers, p.Degrades, p.Votes, p.ServeErrors)
		last[p.Replicas] = p
	}
	var base ReplicaPoint
	if b, ok := last[1]; ok {
		base = b
	}
	fmt.Fprintf(w, "\nhardware bill (honest R× cost):\n")
	fmt.Fprintf(w, "%-3s %12s %12s %16s %10s %10s\n", "R", "area mm^2", "power mW", "energy/img J", "area x", "energy x")
	for _, p := range points {
		if p.Step != 0 {
			continue
		}
		ax, ex := 1.0, 1.0
		if base.AreaMM2 > 0 {
			ax = p.AreaMM2 / base.AreaMM2
		}
		lb := last[p.Replicas]
		if b, ok := last[1]; ok && b.EnergyPerImageJ > 0 {
			ex = lb.EnergyPerImageJ / b.EnergyPerImageJ
		}
		fmt.Fprintf(w, "%-3d %12.3f %12.1f %16.3e %9.2fx %9.2fx\n",
			p.Replicas, p.AreaMM2, p.PowerMW, lb.EnergyPerImageJ, ax, ex)
	}
}

// WriteReplicasCSV emits the sweep points as CSV.
func WriteReplicasCSV(w io.Writer, points []ReplicaPoint) error {
	return WriteCSV(w, []string{"workload", "replicas", "step", "miss", "halfwidth95",
		"availability", "soft_answers", "serve_errors", "degraded_layers",
		"failovers", "degrades", "votes", "disagreements",
		"area_mm2", "power_mw", "energy_per_image_j"}, points,
		func(p ReplicaPoint) []string {
			return []string{
				p.Workload, strconv.Itoa(p.Replicas), strconv.Itoa(p.Step),
				fmt.Sprintf("%.6f", p.Miss.Rate()),
				fmt.Sprintf("%.6f", p.Miss.HalfWidth95()),
				fmt.Sprintf("%.6f", p.Availability),
				strconv.Itoa(p.SoftAnswers),
				strconv.Itoa(p.ServeErrors),
				strconv.Itoa(p.DegradedLayers),
				strconv.FormatUint(p.Failovers, 10),
				strconv.FormatUint(p.Degrades, 10),
				strconv.FormatUint(p.Votes, 10),
				strconv.FormatUint(p.Disagreements, 10),
				fmt.Sprintf("%.4f", p.AreaMM2),
				fmt.Sprintf("%.2f", p.PowerMW),
				fmt.Sprintf("%.6e", p.EnergyPerImageJ),
			}
		})
}
