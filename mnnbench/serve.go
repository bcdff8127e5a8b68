package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/serve"
)

// servePool is how many test images the serve workload cycles through.
// Every image is asked for at least once per run, so the miss rate moves
// with the noise streams and not with which images were drawn.
const servePool = 112

// The serving configuration: mnnserve's batched-serving setting (MaxBatch
// 16, QueueDepth 64) with its recovery defaults.
const (
	maxBatch   = 16
	queueDepth = 64
	topK       = 3
)

// The serve workload's three phases, sized from a capacity of roughly 40
// images per second on two cores. They alternate in cycles of about six
// seconds — steady, then two bursts, then overload — and every timing is
// taken per cycle (per burst for the bursts), so the run reports a quartile
// over segments spread through the whole run; see bestQuartile.
const (
	serveCycle = 6250 * time.Millisecond
	// steadyRate is a quarter of capacity, paced: 32 arrivals a cycle, so
	// the 7 cycles of a 45-second run ask for each pool image exactly twice.
	steadyRate = 10.0 // requests per second
	steadySlot = 3200 * time.Millisecond
	// burstsPerCycle bursts of maxBatch simultaneous requests, each fired
	// once the previous one is answered and timed as its own segment, so
	// serve.busy_frac.burst covers only the time the bursts keep the pool
	// busy. Each clears in under a second here; the 14 bursts of a
	// 45-second run ask for each pool image twice.
	burstsPerCycle = 2
	// overloadRate is about twice capacity; a second of it overfills the
	// admission queue.
	overloadRate = 90.0 // requests per second, Poisson
	overloadSlot = time.Second
)

// recoveryConfig is mnnserve's default recovery ladder.
func recoveryConfig() serve.RecoveryConfig {
	return serve.RecoveryConfig{
		Enabled:       true,
		Monitor:       fault.MonitorConfig{TripRate: 0.05},
		RetryAttempts: 2,
		MaxRemaps:     1,
	}
}

// servingSystem is one built server and what a run needs to drive it.
type servingSystem struct {
	srv *serve.Server
	eng *accel.Engine
}

func (s *servingSystem) sched() *serve.Scheduler { return s.srv.Scheduler() }

// release drains the server and stops its workers.
func (s *servingSystem) release() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mnnbench: drain:", err)
	}
}

// imagePool holds the serve workload's images, with each image's JSON
// array encoded once.
type imagePool struct {
	ex   []nn.Example
	json [][]byte
}

func newImagePool() (*imagePool, error) {
	p := &imagePool{ex: testImages(servePool)}
	for _, ex := range p.ex {
		b, err := json.Marshal(ex.Input.Data)
		if err != nil {
			return nil, err
		}
		p.json = append(p.json, b)
	}
	return p, nil
}

// predictResponse is the part of the /v1/predict body the benchmark reads.
type predictResponse struct {
	Results []struct {
		Class int    `json:"class"`
		TopK  []int  `json:"top_k"`
		Seed  uint64 `json:"seed"`
		ECC   struct {
			RowReads  uint64 `json:"row_reads"`
			RowErrors uint64 `json:"row_errors"`
			Clean     uint64 `json:"clean"`
			Corrected uint64 `json:"corrected"`
			Detected  uint64 `json:"detected"`
			Retries   uint64 `json:"retries"`
			Residual  uint64 `json:"residual"`
			SoftMVMs  uint64 `json:"soft_mvms"`
		} `json:"ecc"`
		Degraded []int `json:"degraded_layers"`
	} `json:"results"`
}

// sendHTTP posts one single-image JSON request through Server.ServeHTTP.
func (s *servingSystem) sendHTTP(img []byte, seed uint64) outcome {
	body := fmt.Appendf(make([]byte, 0, len(img)+64), `{"top_k":%d,"seed":%d,"image":`, topK, seed)
	body = append(append(body, img...), '}')
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	o := outcome{status: rec.Code}
	if rec.Code != http.StatusOK {
		return o
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 {
		o.status = 0 // a 200 without a readable answer is a failure
		return o
	}
	r := resp.Results[0]
	o.class, o.topK, o.seed = r.Class, r.TopK, r.Seed
	o.stats = accel.Stats{RowReads: r.ECC.RowReads, RowErrors: r.ECC.RowErrors, Clean: r.ECC.Clean,
		Corrected: r.ECC.Corrected, Detected: r.ECC.Detected, Retries: r.ECC.Retries,
		Residual: r.ECC.Residual, SoftMVMs: r.ECC.SoftMVMs}
	o.degraded = len(r.Degraded) > 0
	return o
}

// sendDirect asks Scheduler.Predict, the layer under ServeHTTP, which also
// reports the request's queue wait and worker time.
func (s *servingSystem) sendDirect(img []float64, seed uint64) outcome {
	pred, err := s.sched().Predict(context.Background(), nn.FromSlice(img, 1, 28, 28), seed, topK)
	if err != nil {
		return outcome{status: statusOf(err)}
	}
	return outcome{status: http.StatusOK, class: pred.Class, topK: pred.TopK, seed: pred.Seed,
		stats: pred.Stats, degraded: len(pred.Degraded) > 0, queueWait: pred.QueueWait, infer: pred.Infer}
}

// statusOf maps a scheduler error to the status ServeHTTP would answer.
func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrQueueTimeout), errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// client sends a workload's requests. Untraced runs post JSON through
// ServeHTTP. Traced runs call Scheduler.Predict under a request span with
// the reported queue wait and worker time as child spans; the JSON layer's
// own cost is measured separately by httpProbe.
type client struct {
	o    opts
	sys  *servingSystem
	pool *imagePool
}

func (d *client) send(parent int) func(arrival) outcome {
	return func(a arrival) outcome {
		if d.o.tr == nil {
			return d.sys.sendHTTP(d.pool.json[a.image], a.seed)
		}
		id := d.o.tr.begin("serve.request", parent, a.req)
		out := d.sys.sendDirect(d.pool.ex[a.image].Input.Data, a.seed)
		now := time.Now()
		if out.status != http.StatusOK {
			d.o.tr.endAs(id, "serve.rejected")
			return out
		}
		d.o.tr.end(id)
		d.o.tr.add("serve.queue_wait", id, a.req, now.Add(-out.infer-out.queueWait), now.Add(-out.infer))
		d.o.tr.add("serve.infer", id, a.req, now.Add(-out.infer), now)
		return out
	}
}

// phaseResult is one open-loop phase as the client saw it, possibly
// gathered over several segments of the run.
type phaseResult struct {
	name     string
	arr      []arrival
	outs     []outcome
	wall     time.Duration // per segment: start to the last answer, summed
	sizeSum  uint64        // images served through worker passes
	batches  uint64        // worker passes
	cpu      time.Duration // process CPU time
	segments int
	// Each segment's own latency quantiles and goodput (200s per second).
	segP50, segP95, segGood []float64
}

func (p *phaseResult) batchMean() float64 { return ratio(float64(p.sizeSum), float64(p.batches)) }

// busyFrac is process CPU time over the cores' wall time.
func (p *phaseResult) busyFrac(workers int) float64 {
	return ratio(p.cpu.Seconds(), float64(workers)*p.wall.Seconds())
}

func (p *phaseResult) lateMS() []float64 {
	ms := make([]float64, len(p.outs))
	for i, o := range p.outs {
		ms[i] = o.lateMS()
	}
	return ms
}

// runPhase fires one segment of a phase and adds it, with its
// scheduler-side telemetry, to p.
func (d *client) runPhase(p *phaseResult, arr []arrival) {
	bs0 := d.sys.sched().BatchStatus()
	cpu0 := cpuTime()
	pid := d.o.tr.begin("phase."+p.name, 0, p.segments)
	start := time.Now()
	outs := fire(start, arr, d.send(pid))
	d.o.tr.end(pid)
	bs1 := d.sys.sched().BatchStatus()
	// wall runs to the last response; lastOK to the last 200, so a request
	// that waits out its queue timeout after the work is done does not
	// count against the segment's goodput.
	var wall, lastOK time.Duration
	for _, o := range outs {
		wall = max(wall, o.done.Sub(start))
		if o.status == http.StatusOK {
			lastOK = max(lastOK, o.done.Sub(start))
		}
	}
	p.arr = append(p.arr, arr...)
	p.outs = append(p.outs, outs...)
	p.wall += wall
	p.sizeSum += bs1.SizeSum - bs0.SizeSum
	p.batches += bs1.Batches - bs0.Batches
	p.cpu += cpuTime() - cpu0
	p.segments++
	ms := latencies(outs)
	p.segP50 = append(p.segP50, median(ms))
	p.segP95 = append(p.segP95, quantile(ms, 0.95))
	p.segGood = append(p.segGood, ratio(float64(answered(outs)), lastOK.Seconds()))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies returns the due-time latencies (ms) of the answered requests.
func latencies(outs []outcome) []float64 {
	var ms []float64
	for _, o := range outs {
		if o.status == http.StatusOK {
			ms = append(ms, o.latencyMS())
		}
	}
	return ms
}

// answered counts the 200 responses.
func answered(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.status == http.StatusOK {
			n++
		}
	}
	return n
}

// missRate is top-1 misclassification against the labels, averaged per
// pool image over that image's answers, so it does not depend on how often
// the schedule happened to ask for each image.
func missRate(pool *imagePool, phases []*phaseResult) float64 {
	asked := make([]float64, len(pool.ex))
	missed := make([]float64, len(pool.ex))
	for _, ph := range phases {
		for i, o := range ph.outs {
			if o.status != http.StatusOK {
				continue
			}
			img := ph.arr[i].image
			asked[img]++
			if o.class != pool.ex[img].Label {
				missed[img]++
			}
		}
	}
	var rates []float64
	for i := range asked {
		if asked[i] > 0 {
			rates = append(rates, missed[i]/asked[i])
		}
	}
	return mean(rates)
}

// warm sends one request, then one burst the size of a coalesced batch, so
// every worker has armed its batched arena before timing starts.
func warm(sys *servingSystem, pool *imagePool) error {
	arr := []arrival{{image: 0, seed: 1 << 40}}
	for i := 0; i < maxBatch; i++ {
		arr = append(arr, arrival{due: time.Millisecond, image: i + 1, seed: 1<<40 + uint64(i) + 1})
	}
	for _, o := range fire(time.Now(), arr, func(a arrival) outcome { return sys.sendHTTP(pool.json[a.image], a.seed) }) {
		if o.status != http.StatusOK {
			return fmt.Errorf("warm-up request answered %d", o.status)
		}
	}
	return nil
}

// replayCheck replays up to 200 answers, in phase order, through a fresh
// accel.Session on the same engine with the stream each answer reports: a
// prediction is a pure function of (engine, seed), so class, top-k and ECU
// counts must match exactly. Remaps and degrades change the engine under
// earlier answers, so when the ladder took either the check cannot hold and
// the run fails saying so.
func replayCheck(rep *report, sys *servingSystem, pool *imagePool, phases []*phaseResult, workers int) {
	rc := sys.sched().RecoveryCounters()
	if rc.Remaps+rc.Degrades > 0 {
		rep.problem("replay check impossible: the recovery ladder remapped %d and degraded %d layers", rc.Remaps, rc.Degrades)
		return
	}
	type item struct {
		img int
		o   outcome
	}
	var sample []item
	for _, ph := range phases {
		for i, o := range ph.outs {
			if o.status == http.StatusOK && len(sample) < 200 {
				sample = append(sample, item{ph.arr[i].image, o})
			}
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sys.eng.NewSession(0)
			for i := w; i < len(sample); i += workers {
				it := sample[i]
				sess.Reseed(it.o.seed)
				sess.DrainStats()
				topk := sess.Forward(pool.ex[it.img].Input).TopK(len(it.o.topK))
				st := sess.DrainStats()
				if topk[0] != it.o.class || !slices.Equal(topk, it.o.topK) || st != it.o.stats {
					mu.Lock()
					rep.problem("answer for image %d seed %d (class %d top-k %v ECU %+v) differs from its replay (class %d top-k %v ECU %+v)",
						it.img, it.o.seed, it.o.class, it.o.topK, it.o.stats, topk[0], topk, st)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
}

// httpProbe times ServeHTTP against Scheduler.Predict for the same images
// and seeds on an idle server, alternating which goes first; the median
// difference is the HTTP/JSON layer's own cost.
func httpProbe(d *client) float64 {
	var diffs []float64
	for i := 0; i < 32; i++ {
		img, seed := i%len(d.pool.ex), uint64(1<<41+i)
		t0 := time.Now()
		if i%2 == 0 {
			d.sys.sendHTTP(d.pool.json[img], seed)
		} else {
			d.sys.sendDirect(d.pool.ex[img].Input.Data, seed)
		}
		t1 := time.Now()
		if i%2 == 0 {
			d.sys.sendDirect(d.pool.ex[img].Input.Data, seed)
		} else {
			d.sys.sendHTTP(d.pool.json[img], seed)
		}
		first, second := t1.Sub(t0), time.Since(t1)
		if i%2 == 1 {
			first, second = second, first
		}
		diffs = append(diffs, float64(first-second)/1e6)
	}
	return median(diffs)
}

// servingLayers fills the serve workload's per-layer metrics.
func servingLayers(rep *report, d *client, phases []*phaseResult) {
	o := d.o
	var qw, inf []float64
	var ecc accel.Stats
	var n, degraded int
	for _, ph := range phases {
		rep.layer["serve.batch_size.mean."+ph.name] = ph.batchMean()
		rep.layer["serve.busy_frac."+ph.name] = ph.busyFrac(o.workers)
		rep.layer["gen.late_ms.p95."+ph.name] = quantile(ph.lateMS(), 0.95)
		if ph.name == "steady" {
			// The steady phase's tail over all its requests (224 in a
			// 45-second run, 11 beyond the 95th percentile). It is not an
			// end-to-end metric: a host stall lengthens a few requests of
			// every cycle, so it spreads from run to run more than any
			// bound allows.
			rep.layer["serve.steady_p95_ms"] = quantile(latencies(ph.outs), 0.95)
		}
		for _, out := range ph.outs {
			if out.status != http.StatusOK {
				continue
			}
			if ph.name != "overload" {
				qw = append(qw, float64(out.queueWait)/1e6)
				inf = append(inf, float64(out.infer)/1e6)
			}
			ecc.Merge(out.stats)
			n++
			if out.degraded {
				degraded++
			}
		}
	}
	rep.layer["serve.queue_wait_ms.p50"] = median(qw)
	rep.layer["serve.queue_wait_ms.p95"] = quantile(qw, 0.95)
	rep.layer["serve.infer_ms.p50"] = median(inf)
	rep.layer["serve.handoff_ms.p50"] = median(o.tr.selfTimes("serve.request"))
	rep.layer["serve.http_ms.p50"] = httpProbe(d)
	rc := d.sys.sched().RecoveryCounters()
	rep.layer["serve.ladder_retries"] = float64(rc.Retries)
	rep.layer["serve.remaps"] = float64(rc.Remaps)
	rep.layer["serve.degraded_answers"] = float64(degraded)
	rep.layer["serve.degraded_frac"] = ratio(float64(degraded), float64(n))
	eccTotals(rep.layer, ecc, n)
	cell := cellName("MLP1", accel.SchemeABN(9))
	rep.layer["accel.map_s."+cell] = median(o.tr.durations("accel.map."+cell)) / 1e3
	probeEngine(o, rep, cell, d.sys.eng, d.pool.ex, true)
}

// runServe is the operator's path: MLP1 on ABN-9 behind the HTTP handler,
// driven open-loop through a steady, a burst and an overload phase.
func runServe(o opts) (*report, error) {
	rep := newReport()
	pool, err := newImagePool()
	if err != nil {
		return nil, err
	}
	net, err := loadNet("MLP1")
	if err != nil {
		return nil, err
	}
	eng, err := probeMap(o, cellName("MLP1", accel.SchemeABN(9)), net, accelConfig(accel.SchemeABN(9)))
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(eng, serve.Model{Name: net.Name, InShape: net.InShape}, serve.Config{
		Workers: o.workers, QueueDepth: queueDepth, MaxBatch: maxBatch, TopK: topK,
		Recovery: recoveryConfig(),
	})
	if err != nil {
		return nil, err
	}
	sys := &servingSystem{srv: srv, eng: eng}
	if err := warm(sys, pool); err != nil {
		sys.release()
		return nil, err
	}
	rep.e2e["setup_s"] = setupSeconds()
	// Collect the set-up's garbage before timing starts.
	runtime.GC()

	gSteady := newGenerator(o.seed, 1, servePool)
	gBurst := newGenerator(o.seed, 2, servePool)
	gOver := newGenerator(o.seed, 3, servePool)
	d := &client{o: o, sys: sys, pool: pool}
	steady, burst, overload := &phaseResult{name: "steady"}, &phaseResult{name: "burst"}, &phaseResult{name: "overload"}
	rep.measured[0] = time.Now()
	for c := 0; c < max(1, int(o.seconds/serveCycle)); c++ {
		d.runPhase(steady, gSteady.schedule(gSteady.paced(steadyRate, steadySlot)))
		for b := 0; b < burstsPerCycle; b++ {
			d.runPhase(burst, gBurst.schedule(make([]time.Duration, maxBatch)))
		}
		d.runPhase(overload, gOver.schedule(gOver.poisson(overloadRate, overloadSlot)))
	}
	rep.measured[1] = time.Now()
	phases := []*phaseResult{steady, burst, overload}
	for _, ph := range phases {
		rep.attempted += len(ph.outs)
		for _, out := range ph.outs {
			ok := out.status == http.StatusOK
			if ph == overload {
				// 429 and 503 are the designed backpressure under overload.
				ok = ok || out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable
			}
			if !ok {
				rep.failed++
			}
		}
		fmt.Fprintf(os.Stderr, "serve %-8s sent %4d answered %4d wall %6.2fs batch %.2f late p95 %.2fms\n",
			ph.name, len(ph.outs), answered(ph.outs), ph.wall.Seconds(), ph.batchMean(), quantile(ph.lateMS(), 0.95))
	}
	rep.e2e["p50_ms"] = bestQuartile(steady.segP50, lower)
	rep.e2e["burst_p50_ms"] = bestQuartile(burst.segP50, lower)
	rep.e2e["burst_p95_ms"] = bestQuartile(burst.segP95, lower)
	rep.e2e["goodput_rps"] = bestQuartile(overload.segGood, higher)
	rep.e2e["miss_rate"] = missRate(pool, phases)

	if o.tr != nil {
		servingLayers(rep, d, phases)
	}
	sys.release()
	replayCheck(rep, sys, pool, phases, o.workers)
	return rep, nil
}
