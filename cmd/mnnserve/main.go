// Command mnnserve serves noisy-crossbar inference over HTTP: it trains (or
// restores from the weight cache) one of the Table II workloads, maps it
// onto the simulated accelerator once, and answers classification requests
// from a fixed pool of evaluation sessions with per-request ECC telemetry.
//
//	mnnserve -workload MLP1 -scheme ABN-9 -bits 2 -addr :8420
//
// Endpoints:
//
//	POST /v1/predict  — {"image": [...]} or {"images": [[...], ...]};
//	                    returns class, top-k, and per-image ECU counts
//	GET  /healthz     — liveness + mapped configuration
//	GET  /readyz      — readiness: drain state, queue headroom, breakers
//	GET  /metrics     — Prometheus text format
//	GET  /plan        — SLO-driven protection plan from the analytic
//	                    predictor, recalibrated by live monitor rates;
//	                    only with -plan
//	GET  /debug/pprof — live profiling, only with -pprof
//
// Recovery (on by default, -recovery=false for pure replayable serving)
// watches per-layer ECU outcomes and climbs retry → remap → degrade when a
// layer's breaker trips. -fault-steps injects a deterministic wear-out
// campaign into the live arrays, advancing one lifetime step every
// -fault-every served requests — a self-contained chaos drill:
//
//	mnnserve -workload MLP1 -fault-steps 4 -fault-every 50 -fault-stuck 0.01
//
// -scrub arms the proactive side: a background patroller walks the mapped
// arrays (in idle scheduler slots, or on a detached copy with -replicas),
// re-programs drifted rows with write-verify pulses, and spares
// uncorrectable rows onto -spare-rows spare lines, pre-empting breaker
// trips before the reactive ladder fires:
//
//	mnnserve -workload MLP1 -scrub -scrub-interval 500ms -spare-rows 4
//
// -replicas N programs every layer onto N independent array sets behind a
// health-aware router: flagged reads fail over to a sibling copy before the
// temporal ladder escalates, persistently flagged layers majority-vote
// across 3 copies (-vote-threshold), and sick copies are detached,
// re-programmed, verified, and rejoined while their siblings keep serving:
//
//	mnnserve -workload MLP1 -replicas 2 -fault-steps 4 -fault-every 50
//
// -shards N splits the model's layers into N contiguous fault domains, each
// owning its own replica set, breakers, scrubber rotation, and persistence
// slice. The recovery ladder repairs a sick layer inside its own shard, an
// operator can drain, repair, and rejoin a whole shard without touching its
// siblings, and per-request outputs are
// bit-identical at any shard count. -admin exposes the operator API for
// exactly those moves, plus a workload registry that loads and evicts
// additional models behind the same listener:
//
//	mnnserve -workload MLP1 -shards 4 -replicas 2 -admin
//	curl -s localhost:8420/admin/shards | jq
//	curl -s -X POST localhost:8420/admin/shards -d '{"action":"drain","shard":2}'
//	curl -s -X POST localhost:8420/admin/models -d '{"action":"load","model":"MLP2"}'
//
// -device selects a named cell profile from the device library (see
// `mnnsim devices`); the device's own bits-per-cell applies unless -bits is
// passed explicitly. -scenario replays a deterministic environment timeline
// on the served-request clock — temperature excursions, wear-acceleration
// windows, transient RTN bursts — retuning the live arrays one environment
// step per -scenario-every requests and rescaling any armed fault campaign's
// arrival rates. -controller closes the loop: measured error rates and
// breaker state feed back into patrol cadence, vote thresholds, proactive
// replica repair, and pre-emptive degradation, with hysteresis:
//
//	mnnserve -workload MLP1 -device high-rtn -scenario heatwave \
//	    -scrub -replicas 2 -controller -fault-steps 6 -fault-every 50
//
// SIGINT/SIGTERM drain the admission queue before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/accel"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/noise"
	"repro/internal/predict"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnnserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnnserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8420", "listen address")
	workload := fs.String("workload", "MLP1", "network to serve (MLP1|MLP2|CNN1)")
	scheme := fs.String("scheme", "ABN-9", "protection scheme (NoECC|Static16|Static128|ABN-<bits>)")
	deviceName := fs.String("device", noise.DefaultDeviceName, "named device profile (list with: mnnsim devices)")
	bits := fs.Int("bits", 2, "bits per cell (unset = the device profile's own width)")
	stuck := fs.Float64("stuck", 0, "stuck-cell failure rate (Figure 11 uses 0.001)")
	retries := fs.Int("retries", 6, "ECU re-reads on detected-uncorrectable errors")
	workers := fs.Int("workers", 0, "session-pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "max queue wait before 503")
	maxBatch := fs.Int("max-batch", 0, "max queued requests a worker coalesces into one multi-image pass; below it a worker takes its fair share, ceil(pending/workers) (0 = 16, 1 disables)")
	coalesceWait := fs.Duration("coalesce-wait", 0, "how long a worker holds a dequeued request gathering batchmates (0 = drain-and-go)")
	topK := fs.Int("topk", 3, "default ranked classes per result")
	trainN := fs.Int("train", 4000, "training examples (when the cache misses)")
	epochs := fs.Int("epochs", 5, "training epochs (when the cache misses)")
	seed := fs.Uint64("seed", 1, "mapping/fault-injection seed")
	cache := fs.String("cache", "testdata/weights", "trained-weight cache directory")
	recovery := fs.Bool("recovery", true, "enable the retry→remap→degrade recovery ladder")
	tripRate := fs.Float64("trip-rate", 0.05, "detected-uncorrectable rate that opens a layer breaker")
	retryAttempts := fs.Int("retry-attempts", 2, "rung-1 reseeded re-evaluations before escalating")
	maxRemaps := fs.Int("max-remaps", 1, "rung-2 spare-array re-programmings per layer before degrading (-1 = degrade immediately)")
	faultSteps := fs.Int("fault-steps", 0, "run a seeded wear-out campaign with this many lifetime steps (0 disables)")
	faultEvery := fs.Uint64("fault-every", 50, "served requests between campaign steps")
	faultStuck := fs.Float64("fault-stuck", 0.005, "campaign: new stuck-cell probability per cell per step")
	faultLRS := fs.Float64("fault-lrs", 0.7, "campaign: fraction of stuck faults pinned at LRS")
	faultDriftEvery := fs.Int("fault-drift-every", 2, "campaign: drift wave every N steps (0 disables)")
	faultDriftRate := fs.Float64("fault-drift-rate", 0.002, "campaign: per-cell drift probability per wave")
	scrubOn := fs.Bool("scrub", false, "enable the background patrol scrubber (repairs drift, spares worn rows)")
	scrubInterval := fs.Duration("scrub-interval", time.Second, "idle-slot patrol tick interval")
	spareRows := fs.Int("spare-rows", 0, "spare lines per array available for patrol sparing")
	verifyIters := fs.Int("verify-iters", 5, "max write-verify pulses per programmed cell (0 = blind programming)")
	shards := fs.Int("shards", 0, "contiguous layer fault domains, each with its own replica set and breakers (0 = unsharded)")
	adminOn := fs.Bool("admin", false, "expose the /admin operator API: shard drain/repair/rejoin and the model registry")
	replicas := fs.Int("replicas", 1, "independent programmed copies per layer with health-aware routing (1 = no replication)")
	voteThreshold := fs.Int("vote-threshold", 3, "consecutive flagged MVMs before a layer majority-votes across 3 replicas (0 disables)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving address")
	planOn := fs.Bool("plan", false, "expose GET /plan: the analytic protection planner recalibrated by live monitor rates")
	planMiss := fs.Float64("plan-miss", 0.05, "plan: misclassification-rate SLO ceiling")
	planAvail := fs.Float64("plan-availability", 0.999, "plan: availability SLO floor (0 disables the replication search)")
	planImages := fs.Int("plan-images", 200, "plan: calibration images for the analytic predictor")
	scenarioName := fs.String("scenario", "", fmt.Sprintf("environment timeline to replay on the request clock (%v; empty disables)", scenario.Names()))
	scenarioSteps := fs.Int("scenario-steps", 8, "scenario: timeline steps")
	scenarioEvery := fs.Uint64("scenario-every", 50, "scenario: served requests between environment steps")
	controllerOn := fs.Bool("controller", false, "enable the closed-loop protection controller (requires -recovery)")
	controllerInterval := fs.Duration("controller-interval", time.Second, "controller: decision tick interval")
	controllerTighten := fs.Float64("controller-tighten", 0.01, "controller: detected-rate pressure threshold that tightens protection")
	stateDir := fs.String("state-dir", "", "crash-consistent state directory: snapshot device+protection state there and restore it at boot (empty disables)")
	persistEvery := fs.Uint64("persist-every", 0, "served requests between background snapshots (0 = 256)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *faultSteps > 0 && *faultEvery == 0 {
		return fmt.Errorf("-fault-every must be >= 1 when -fault-steps is set")
	}
	if *scenarioName != "" && *scenarioEvery == 0 {
		return fmt.Errorf("-scenario-every must be >= 1 when -scenario is set")
	}
	if *controllerOn && !*recovery {
		return fmt.Errorf("-controller needs -recovery: the health monitor is its sensor")
	}
	// An explicit -bits wins; otherwise the device profile's own cell width
	// applies (fast-lowprec is a 1-bit cell, the rest are 2-bit).
	bitsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "bits" {
			bitsSet = true
		}
	})

	sch, err := accel.ParseScheme(*scheme)
	if err != nil {
		return err
	}

	opt := expt.DefaultTrainOptions()
	opt.Seed = *seed + 41
	opt.Train = *trainN
	opt.Epochs = *epochs
	opt.CacheDir = *cache
	opt.Log = os.Stderr
	workloads, err := expt.DigitWorkloads(opt)
	if err != nil {
		return err
	}
	var w expt.Workload
	for _, cand := range workloads {
		if strings.EqualFold(cand.Name, *workload) {
			w = cand
		}
	}
	if w.Net == nil {
		return fmt.Errorf("unknown workload %q (want MLP1|MLP2|CNN1)", *workload)
	}

	dev, err := noise.Device(*deviceName)
	if err != nil {
		return err
	}
	acfg := accel.DefaultConfig(sch)
	acfg.Device = dev
	acfg.DeviceName = *deviceName
	if bitsSet {
		acfg.Device.BitsPerCell = *bits
	}
	acfg.Device.FailureRate = *stuck
	acfg.Retries = *retries
	acfg.Seed = *seed
	acfg.SpareRows = *spareRows
	acfg.VerifyIters = *verifyIters
	fmt.Fprintf(os.Stderr, "mapping %s under %s on %s at %d bits/cell...\n",
		w.Name, sch.Name, *deviceName, acfg.Device.BitsPerCell)
	eng, err := accel.Map(w.Net, acfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mapped: %d physical rows, %d coded groups\n",
		eng.PhysicalRows, eng.NumGroups())

	scfg := serve.Config{
		Workers: *workers, QueueDepth: *queue, QueueTimeout: *queueTimeout, TopK: *topK,
		MaxBatch: *maxBatch, CoalesceWait: *coalesceWait,
		Pprof: *pprofOn,
	}
	if *recovery {
		scfg.Recovery = serve.RecoveryConfig{
			Enabled:       true,
			Monitor:       fault.MonitorConfig{TripRate: *tripRate},
			RetryAttempts: *retryAttempts,
			MaxRemaps:     *maxRemaps,
		}
	}
	if *scrubOn {
		scfg.Scrub = serve.ScrubConfig{Enabled: true, Interval: *scrubInterval}
	}
	if *replicas > 1 {
		scfg.Replicas = replica.Config{
			N:             *replicas,
			VoteThreshold: *voteThreshold,
			Monitor:       fault.MonitorConfig{TripRate: *tripRate},
		}
		fmt.Fprintf(os.Stderr, "replicating onto %d independent array sets (%.0fx area)...\n",
			*replicas, float64(*replicas))
	}
	if *shards > 0 {
		scfg.Shards = *shards
		fmt.Fprintf(os.Stderr, "sharding %d layers into %d contiguous fault domains...\n",
			len(eng.Layers()), *shards)
	}
	if *adminOn {
		scfg.Admin = serve.AdminConfig{
			Enabled: true,
			// The loader maps additional Table II workloads onto fresh
			// simulated arrays with the boot configuration; training reuses
			// the weight cache, so a warm cache loads in milliseconds.
			Loader: func(name string) (*accel.Engine, serve.Model, error) {
				for _, cand := range workloads {
					if strings.EqualFold(cand.Name, name) {
						eng, err := accel.Map(cand.Net, acfg)
						if err != nil {
							return nil, serve.Model{}, err
						}
						return eng, serve.Model{Name: cand.Name, InShape: cand.Net.InShape}, nil
					}
				}
				return nil, serve.Model{}, fmt.Errorf("unknown workload %q (want MLP1|MLP2|CNN1)", name)
			},
		}
		fmt.Fprintln(os.Stderr, "admin API armed: /admin/shards, /admin/models")
	}
	if *controllerOn {
		scfg.Controller = serve.ControllerConfig{
			Enabled:     true,
			Interval:    *controllerInterval,
			TightenRate: *controllerTighten,
		}
		fmt.Fprintf(os.Stderr, "protection controller armed: tick %v, tighten at detected rate >= %.3g\n",
			*controllerInterval, *controllerTighten)
	}
	if *planOn {
		test := w.Test
		if *planImages > 0 && *planImages < len(test) {
			test = test[:*planImages]
		}
		cal, err := predict.Calibrate(w.Net, test, acfg.InputBits)
		if err != nil {
			return err
		}
		scfg.Plan = serve.PlanConfig{
			Enabled:     true,
			Calibration: cal,
			SLO:         predict.SLO{MaxMiss: *planMiss, MinAvailability: *planAvail},
		}
		fmt.Fprintf(os.Stderr, "plan endpoint armed: SLO miss<=%.4f avail>=%.4f (%d calibration images)\n",
			*planMiss, *planAvail, len(test))
	}
	if *stateDir != "" {
		scfg.Persist = serve.PersistConfig{Dir: *stateDir, Every: *persistEvery}
	}
	srv, err := serve.NewServer(eng, serve.Model{Name: w.Name, InShape: w.Net.InShape}, scfg)
	if err != nil {
		return err
	}
	if ps, ok := srv.Scheduler().PersistStatus(); ok {
		switch ps.Outcome {
		case serve.RestoreRestored:
			fmt.Fprintf(os.Stderr, "state restored from %s: resuming at %d served requests\n",
				*stateDir, srv.Scheduler().Served())
		case serve.RestoreFallback:
			fmt.Fprintf(os.Stderr, "SNAPSHOT REFUSED in %s: %s — serving from a fresh map\n",
				*stateDir, ps.RestoreErr)
		default:
			every := *persistEvery
			if every == 0 {
				every = 256
			}
			fmt.Fprintf(os.Stderr, "no snapshot in %s: fresh boot, snapshotting every %d requests\n",
				*stateDir, every)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tl scenario.Timeline
	if *scenarioName != "" {
		tl, err = scenario.Generate(*scenarioName, *seed, *scenarioSteps)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scenario %q armed: %d env steps, one per %d served requests (peak wear x%.1f)\n",
			tl.Spec, tl.Steps(), *scenarioEvery, tl.MaxWearScale())
		// Each step re-derives the device from the unmodified base, so
		// excursions never compound across steps and the sequence replays
		// exactly.
		base := acfg.Device
		go driveServedClock(ctx, srv.Scheduler(), *scenarioEvery, 0, tl.Steps()-1, func(step int) bool {
			env := tl.At(step)
			if err := srv.Scheduler().ApplyEnv(env.Apply(base)); err != nil {
				fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
				return false
			}
			fmt.Fprintf(os.Stderr, "scenario %s: step %d/%d (temp %+.0f K, rtn x%.2f, wear x%.2f, burst x%.2f)\n",
				tl.Spec, step, tl.Steps()-1, env.TempDeltaK, env.RTNScale, env.WearScale, env.BurstScale)
			return true
		})
	}
	if *faultSteps > 0 {
		life := fault.LifetimeParams{
			Steps: *faultSteps, StuckPerStep: *faultStuck, LRSFrac: *faultLRS,
			DriftEvery: *faultDriftEvery, DriftRate: *faultDriftRate,
		}
		campaign := fault.LifetimeCampaign(*seed, eng.Layers(), life)
		if tl.Steps() > 0 {
			// The scenario's wear windows rescale the campaign's arrival
			// rates per step; the campaign's own RNG streams are untouched,
			// so the run stays exactly replayable from the seed.
			campaign = tl.ScaleCampaign(campaign)
		}
		runner, err := fault.NewRunner(campaign, eng)
		if err != nil {
			return err
		}
		// Register the runner so snapshots capture its cursor; a restored
		// snapshot positions it now. A cursor from a different campaign is
		// refused — logged loudly, and the campaign starts from its own
		// position (the arrays still carry the restored fault history).
		if err := srv.Scheduler().SetCampaign(runner); err != nil {
			fmt.Fprintf(os.Stderr, "SNAPSHOT CAMPAIGN CURSOR REFUSED: %v — campaign restarts from step 0\n", err)
		}
		fmt.Fprintf(os.Stderr, "fault campaign armed: %d steps, one step per %d served requests (%d remaining)\n",
			*faultSteps, *faultEvery, runner.Remaining())
		if runner.Remaining() > 0 {
			go driveServedClock(ctx, srv.Scheduler(), *faultEvery, 1, *faultSteps, func(step int) bool {
				events, err := runner.Advance(step)
				if err != nil {
					fmt.Fprintf(os.Stderr, "fault campaign: %v\n", err)
					return false
				}
				fmt.Fprintf(os.Stderr, "fault campaign: advanced to step %d/%d (%d events applied)\n",
					step, *faultSteps, len(events))
				return runner.Remaining() > 0
			})
		}
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "serving %s on %s (%d workers, queue %d)\n",
			w.Name, *addr, srv.Scheduler().Workers(), srv.Scheduler().QueueDepth())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "signal received, draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Stop the listener and wait for in-flight handlers first (the workers
	// are still running, so those handlers complete), then drain whatever
	// is left in the admission queue.
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	sum, err := srv.Shutdown(shutCtx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v (served %d, abandoned %d)\n",
			err, sum.Served, sum.Abandoned)
		return err
	}
	fmt.Fprintf(os.Stderr, "drained, bye (served %d requests; ECC clean/corrected/detected %d/%d/%d)\n",
		sum.Served, sum.ECC.Clean, sum.ECC.Corrected, sum.ECC.Detected)
	rc := srv.Scheduler().RecoveryCounters()
	if rc.Retries+rc.Failovers+rc.Remaps+rc.Degrades > 0 {
		fmt.Fprintf(os.Stderr, "recovery ladder: %d retries, %d failovers, %d remaps, %d degrades\n",
			rc.Retries, rc.Failovers, rc.Remaps, rc.Degrades)
	}
	if *replicas > 1 {
		var votes, disagreements uint64
		for _, set := range srv.Scheduler().ReplicaSets() {
			st := set.Status()
			votes, disagreements = votes+st.Votes, disagreements+st.Disagreements
		}
		fmt.Fprintf(os.Stderr, "replica votes: %d rounds, %d disagreeing elements\n",
			votes, disagreements)
	}
	return nil
}

// driveServedClock advances a step schedule on the served-request clock:
// every 50 ms it reads Served(), and once that has crossed k*every for steps
// above the last one applied it calls apply with the highest such k, capped
// at last (first is the lowest step it applies). It returns when ctx ends,
// when apply returns false, or after step last.
func driveServedClock(ctx context.Context, sched *serve.Scheduler, every uint64, first, last int, apply func(step int) bool) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for next := first; next <= last; {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		step := min(int(sched.Served()/every), last)
		if step < next {
			continue
		}
		if !apply(step) {
			return
		}
		next = step + 1
	}
}
