package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/accel"
	"repro/internal/expt"
	"repro/internal/nn"
)

// sweepImages is the fixed number of test images every sweep cell
// evaluates. The set is fixed so the miss rate moves only with the noise
// streams; the workload seed permutes which image meets which stream.
const sweepImages = 32

// minPasses is the fewest passes a run makes, whatever --seconds says, so
// its quartiles rest on at least four samples.
const minPasses = 4

// sweepCell is one (network, scheme) cell of the Figure 10/11 loop.
type sweepCell struct {
	net    int // index into the loaded networks
	scheme accel.Scheme
}

// runSweep is the researcher's loop: expt.EvaluateScheme over {MLP1, CNN1}
// x {NoECC, ABN-9}, each cell mapping its network and evaluating the fixed
// image set on nproc workers. Whole passes repeat until the measured time
// is spent (at least minPasses), and every pass must reproduce the first pass's
// miss counts and ECU tallies exactly.
func runSweep(o opts) (*report, error) {
	rep := newReport()
	pool := testImages(sweepImages)
	g := newGenerator(o.seed, 0, len(pool))
	test := make([]nn.Example, len(pool))
	for i, j := range g.perm {
		test[i] = pool[j]
	}
	dev := accelConfig(accel.SchemeNoECC()).Device

	var ws []expt.Workload
	for _, name := range []string{"MLP1", "CNN1"} {
		net, err := loadNet(name)
		if err != nil {
			return nil, err
		}
		w := expt.Workload{Name: name, Net: net, Test: test}
		// Warm pass: one small NoECC cell per network.
		if _, err := expt.EvaluateScheme(w, expt.EvalConfig{
			Device: dev, Scheme: accel.SchemeNoECC(), Images: 2, Seed: 1, Workers: o.workers,
		}); err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	rep.e2e["setup_s"] = setupSeconds()

	cells := []sweepCell{
		{0, accel.SchemeNoECC()}, {0, accel.SchemeABN(9)},
		{1, accel.SchemeNoECC()}, {1, accel.SchemeABN(9)},
	}
	var (
		cellMS = make([][]float64, len(cells)) // per cell, one wall time a pass
		passS  []float64
		first  []expt.CellResult
	)
	start := time.Now()
	rep.measured[0] = start
	for pass := 0; ; pass++ {
		p0 := time.Now()
		pid := o.tr.begin("sweep.pass", 0, pass)
		for ci, c := range cells {
			w := ws[c.net]
			name := cellName(w.Name, c.scheme)
			c0 := time.Now()
			id := o.tr.begin("expt.cell."+name, pid, pass)
			res, err := expt.EvaluateScheme(w, expt.EvalConfig{
				Device: dev, Scheme: c.scheme, Images: sweepImages, Seed: 1, Workers: o.workers,
			})
			o.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("sweep cell %s: %w", name, err)
			}
			cellMS[ci] = append(cellMS[ci], float64(time.Since(c0))/1e6)
			rep.attempted += res.Miss.Trials
			if pass == 0 {
				first = append(first, res)
			} else if res.Miss != first[ci].Miss || res.Stats != first[ci].Stats {
				rep.problem("sweep cell %s: pass %d gave misses %d/%d and ECU %+v, pass 0 gave %d/%d and %+v",
					name, pass, res.Miss.Hits, res.Miss.Trials, res.Stats,
					first[ci].Miss.Hits, first[ci].Miss.Trials, first[ci].Stats)
			}
		}
		o.tr.end(pid)
		passS = append(passS, time.Since(p0).Seconds())
		if pass+1 >= minPasses && time.Since(start)+time.Since(p0) > o.seconds {
			break
		}
	}
	rep.measured[1] = time.Now()

	var misses, images int
	var ecc accel.Stats
	for _, r := range first {
		misses += r.Miss.Hits
		images += r.Miss.Trials
		ecc.Merge(r.Stats)
	}
	// Each cell's wall time is reported as its best quartile over the passes
	// (see bestQuartile), and the pass-level figures are built from those, so
	// contention that slowed one cell of a pass does not spoil the others.
	// The cells of a pass are due together, so a cell's completion time is
	// the sum of the cells up to it.
	best := make([]float64, len(cells))
	var done []float64
	var total float64
	for ci := range cells {
		best[ci] = bestQuartile(cellMS[ci], lower)
		total += best[ci]
		done = append(done, total)
	}
	rep.e2e["p50_ms"] = median(best)
	rep.e2e["burst_p50_ms"] = median(done)
	rep.e2e["burst_p95_ms"] = quantile(done, 0.95)
	rep.e2e["goodput_rps"] = float64(images) / (total / 1e3)
	rep.e2e["miss_rate"] = float64(misses) / float64(images)
	fmt.Fprintf(os.Stderr, "sweep: %d passes, pass %.2fs, %d/%d misses\n", len(passS), median(passS), misses, images)

	if o.tr == nil {
		return rep, nil
	}
	eccTotals(rep.layer, ecc, images)
	for _, c := range cells {
		name := cellName(ws[c.net].Name, c.scheme)
		rep.layer["expt.cell_s."+name] = median(o.tr.durations("expt.cell."+name)) / 1e3
	}
	for _, c := range cells {
		w := ws[c.net]
		name := cellName(w.Name, c.scheme)
		cfg := accelConfig(c.scheme)
		eng, err := probeMap(o, name, w.Net, cfg)
		if err != nil {
			return nil, err
		}
		rep.layer["accel.map_s."+name] = median(o.tr.durations("accel.map."+name)) / 1e3
		probeEngine(o, rep, name, eng, test, false)
	}
	for _, w := range ws {
		probeSoft(o, rep, w.Net, test)
	}
	return rep, nil
}
