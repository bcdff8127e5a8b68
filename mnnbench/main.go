// Command mnnbench is the repository's end-to-end benchmark. It drives the
// simulated accelerator only through its public calls — the HTTP handler,
// the serving scheduler, the experiment harness and accelerator sessions —
// under one of two workloads, checks the outputs, and prints one JSON
// result as the last line of standard output.
// Run it from the repository root (it reads testdata/weights and
// BENCHMARK.json there):
//
//	bash mnnbench/run.sh --workload serve --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload and seed with spans recorded around every call into a layer and
// reports the per-layer metrics, writing the spans to
// .bench_build/traces/. BENCHMARK.json lists the metrics a run prints and
// METRICS.md defines them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// procStart is the process start as near as Go code can observe it.
var procStart = time.Now()

// traceDir holds the span files of traced runs.
const traceDir = ".bench_build/traces"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ Name, Unit string }

// opts are the command-line arguments.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	tr       *tracer // nil unless --trace 1
	workers  int
}

// report is one workload run's measurements and checks.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks
	// measured is when the timed work began and ended; set-up, warm-up and
	// the traced run's probes lie outside it.
	measured [2]time.Time
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(opts) (*report, error){
	"serve": runServe,
	"sweep": runSweep,
}

func main() {
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnnbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnnbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("mnnbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve | sweep")
	seed := fs.Uint64("seed", 1, "workload seed: arrivals, image order and noise streams")
	seconds := fs.Int("seconds", 45, "measured seconds per run")
	traceOn := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	body, ok := workloads[*workload]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown workload %q (want serve|sweep)", *workload)
	case *seconds < 1:
		return nil, fmt.Errorf("--seconds must be >= 1")
	case *traceOn != 0 && *traceOn != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	o := opts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.GOMAXPROCS(0)}
	if *traceOn == 1 {
		o.tr = newTracer()
	}

	heap := startHeapSampler()
	rep, err := body(o)
	peak := heap.stop()
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_heap_mb"] = peak / (1 << 20)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "mnnbench: check failed:", p)
	}

	defs, vals := man.EndToEnd, rep.e2e
	if o.tr != nil {
		o.tr.finish()
		path, err := o.tr.write(traceDir, o.workload, o.seed)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "mnnbench: %d spans written to %s\n", len(o.tr.spans), path)
		rep.layer["trace.spans"] = float64(len(o.tr.spans))
		a, b := rep.measured[0], rep.measured[1]
		rep.layer["trace.overhead_frac"] = float64(o.tr.countIn(a, b)) * float64(spanCost()) / float64(b.Sub(a))
		defs, vals = man.PerLayer, rep.layer
	}
	res := &result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && o.tr == nil {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
		}
		// A per-layer metric the workload does not exercise reads 0.
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// spanCost measures what recording one span costs on an idle tracer. A
// traced run's overhead is the number of spans opened during the measured
// work times this cost, as a share of that work's wall time. It estimates
// the traced-minus-untraced difference without a second run's noise, and
// leaves out lock contention between concurrent requests.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", 0, i))
	}
	return time.Since(t0) / n
}

// manifest is the part of BENCHMARK.json that defines the metrics a run
// prints.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// heapSampler tracks the peak live heap — the heap marked live by the
// latest GC — for the whole process, set-up included.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.peak = max(h.peak, float64(s[0].Value.Uint64()))
	h.mu.Unlock()
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// setupSeconds is the time from process start to now: a workload reads it
// once its system is built and warm, just before the first timed operation.
func setupSeconds() float64 { return time.Since(procStart).Seconds() }

// loadNet restores a Table II network from the committed weight cache. It
// fails rather than train: training takes minutes and would be timed as
// set-up.
func loadNet(name string) (*nn.Network, error) {
	var net *nn.Network
	switch name {
	case "MLP1":
		net = nn.NewMLP1(42)
	case "CNN1":
		net = nn.NewCNN1(42)
	default:
		return nil, fmt.Errorf("no network %q", name)
	}
	path := filepath.Join("testdata", "weights", name+"-s42-n4000-e5.gob")
	if err := net.LoadWeights(path); err != nil {
		return nil, fmt.Errorf("weight cache miss for %s — the benchmark never trains: %w", name, err)
	}
	return net, nil
}

// testImages returns the first n SynthDigits test images (seed 42, the set
// every experiment in the repository evaluates on).
func testImages(n int) []nn.Example {
	return dataset.SynthDigits(42, 0, n).Test
}

// accelConfig is the Figure 11 operating point every workload runs at: the
// paper's 2 bits per cell with 0.1% stuck cells, otherwise the defaults
// mnnserve and the sweeps use (mapping seed 1, 6 ECU retries).
func accelConfig(s accel.Scheme) accel.Config {
	cfg := accel.DefaultConfig(s)
	cfg.Device.BitsPerCell = 2
	cfg.Device.FailureRate = 0.001
	return cfg
}

// eccTotals folds the ECU counts of many images into the per-image
// accel/core metrics.
func eccTotals(layer map[string]float64, st accel.Stats, images int) {
	n := float64(images)
	groups := float64(st.GroupReads())
	layer["accel.row_reads_per_image"] = ratio(float64(st.RowReads), n)
	layer["accel.row_error_rate"] = ratio(float64(st.RowErrors), float64(st.RowReads))
	layer["accel.soft_mvms"] = float64(st.SoftMVMs)
	layer["core.group_reads_per_image"] = ratio(groups, n)
	layer["core.corrected_frac"] = ratio(float64(st.Corrected), groups)
	layer["core.detected_frac"] = ratio(float64(st.Detected), groups)
	layer["core.retries_per_image"] = ratio(float64(st.Retries), n)
	layer["core.residual_per_image"] = ratio(float64(st.Residual), n)
}
