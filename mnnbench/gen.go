package main

import (
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/accel"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due   time.Duration // offset from the phase start
	req   int           // request id, unique within the run
	image int           // index into the image pool
	seed  uint64        // noise stream the request asks for
}

// outcome is what the client saw for one request.
type outcome struct {
	status   int
	class    int
	topK     []int
	seed     uint64 // stream the answer was computed under
	stats    accel.Stats
	degraded bool
	// queueWait and infer are the scheduler's own split of the request
	// (only when the request went through Scheduler.Predict).
	queueWait, infer time.Duration
	due, fired, done time.Time
}

func (o outcome) latencyMS() float64 { return float64(o.done.Sub(o.due)) / 1e6 }
func (o outcome) lateMS() float64    { return float64(o.fired.Sub(o.due)) / 1e6 }

// generator turns the workload seed into the arrival schedule of one stream
// of requests — one phase of a workload. Images cycle through a seeded
// permutation of the pool, so every pool image is asked for before any is
// asked for twice; each phase has its own permutation, so each phase's image
// mix is balanced whatever the other phases draw. Each request gets its own
// noise stream.
type generator struct {
	rng  *rand.Rand
	perm []int
	base int // request ids of this stream start here
	next int
}

func newGenerator(seed, stream uint64, poolSize int) *generator {
	rng := rand.New(rand.NewPCG(seed, 0x6d6e6e62656e6368+stream))
	return &generator{rng: rng, perm: rng.Perm(poolSize), base: int(stream) << 20}
}

// schedule assigns an image and a seed to each due offset.
func (g *generator) schedule(dues []time.Duration) []arrival {
	out := make([]arrival, len(dues))
	for i, d := range dues {
		out[i] = arrival{due: d, req: g.base + g.next, image: g.perm[g.next%len(g.perm)],
			seed: 1 + g.rng.Uint64N(1<<32-1)}
		g.next++
	}
	return out
}

// poisson returns the arrival offsets of a Poisson process at rate per
// second over dur.
func (g *generator) poisson(rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// paced returns arrival offsets at rate per second over dur, evenly spaced
// with each arrival delayed by a seeded uniform jitter of up to a fifth of
// the gap. Unlike Poisson arrivals, paced ones never clump, so the steady
// phase's tail reflects the program rather than how many arrivals a seed
// happened to bunch together; bursts and overload cover queueing.
func (g *generator) paced(rate float64, dur time.Duration) []time.Duration {
	gap := 1 / rate
	out := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range out {
		out[i] = time.Duration((float64(i) + 0.2*g.rng.Float64()) * gap * float64(time.Second))
	}
	return out
}

// fire runs one open-loop phase: each arrival is sent at start+due on its
// own goroutine whether or not earlier requests have been answered, so a
// stall delays every later request. Latency is timed from the due time. It
// returns once every request has been answered.
func fire(start time.Time, arrivals []arrival, send func(arrival) outcome) []outcome {
	outs := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		fired := time.Now()
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			o := send(a)
			o.due, o.fired, o.done = due, fired, time.Now()
			outs[i] = o
		}(i, a)
	}
	wg.Wait()
	return outs
}
