package accel

import (
	"math"
	"runtime"
	"sync/atomic"
)

// A one-image MVM splits each group's row reads into a pure half and a
// draw half. The pure half (group.precompute, the same function a
// multi-image MVM runs, here over a batch of one: active counts, noise
// aggregates, ideal outputs, stuck deltas, binomial state) touches no RNG;
// the draw half (group.read) draws every variate on the caller, in
// row-major, plane, group and chunk order. While the machine has an idle
// core, a helper goroutine runs the pure half of group g+1.. into a small
// ring of slots while the caller draws, corrects and accumulates group g.
// When no core is idle the caller fills every slot itself: the same code
// with zero helpers. Which goroutine fills a slot cannot move a draw.

// kernelWorkers counts the goroutines doing kernel work right now: MVM
// callers, pipeline helpers, and mapping's build workers (the mapping
// goroutine counts while it runs its verify pass and its share of the
// builds). A session counts for the whole of a forward pass, not only its
// MVMs, so the layers between MVMs (a convolution's patch gathering
// between its per-position MVMs) do not read as an idle core. A helper is
// taken only while the count is below GOMAXPROCS, and hands its remaining
// groups back to the caller once the count rises past it, so the pipeline
// only ever uses a core no other kernel goroutine wants.
var kernelWorkers atomic.Int32

// beginKernel counts the goroutine owning s in kernelWorkers; nested calls
// (a forward pass and its MVMs) count once.
func (s *Scratch) beginKernel() {
	if s.kernelDepth == 0 {
		kernelWorkers.Add(1)
	}
	s.kernelDepth++
}

// endKernel undoes beginKernel.
func (s *Scratch) endKernel() {
	s.kernelDepth--
	if s.kernelDepth == 0 {
		kernelWorkers.Add(-1)
	}
}

// pipeDepth is the length of each Scratch's ring of precomputed groups:
// the group being read plus up to two filled ahead of it.
const pipeDepth = 3

// pipeYieldRows is how many word lines a helper precomputes between
// yields of its core.
const pipeYieldRows = 256

// pipeMinRows is the smallest MVM, in physical word lines across its
// groups, that offers work to a helper; a row read costs about the same
// whatever the scheme, while a group spans 8 (NoECC) to ~91 (ABN-9) rows.
// Smaller MVMs — all of CNN1's per-position convolutions (48-358 rows) and
// MLP1's output layer (160-226) — stay inline. Helper-on over inline time
// on a 2-core machine at 2 bits per cell: 1.11 at 256 rows and 0.99 at
// 358, 0.61-0.72 at 672-977, 0.47-0.91 from 4800 up.
const pipeMinRows = 512

// padInt32 is an atomic counter on its own cache line, so the caller's and
// the helper's writes to neighbouring counters do not contend.
type padInt32 struct {
	atomic.Int32
	_ [60]byte
}

// pipeline is one Scratch's helper handoff state. The caller sets m,
// total, procs and drop before offering the Scratch to a helper; they stay
// fixed until the helper has left.
type pipeline struct {
	m     *MappedMatrix
	total int32
	// procs is the kernelWorkers level past which the helper leaves.
	procs int32
	// drop, when positive, makes the helper leave after filling that many
	// groups (test hook only).
	drop int32
	// claimed is the next group to precompute; whoever moves it past g
	// fills g. consumed is the number of groups the caller is done with:
	// slot g%pipeDepth is free for g once consumed >= g+1-pipeDepth.
	claimed, consumed padInt32
	// ready[i] is g+1 once a helper has filled group g into slot i.
	ready [pipeDepth]padInt32
	// helping is set while a helper holds this Scratch; quit asks it to
	// leave early.
	helping, quit atomic.Bool
	// kn is the helper's precompute scratch.
	kn batchKernel
}

// pipeJobs hands a Scratch to an idle helper. Helpers are started on
// demand, at most max(1, GOMAXPROCS-1) of them, and park on pipeJobs
// between MVMs; one never touches a Scratch after clearing its helping
// flag, which its MVM waits for before returning.
var (
	pipeJobs    = make(chan *Scratch)
	pipeHelpers atomic.Int32
)

// pipeMode is a test override of the helper gate.
type pipeMode int

const (
	pipeGated pipeMode = iota // production: the kernelWorkers gate decides
	pipeOff                   // never take a helper
	pipeOn                    // take a helper whatever the load
	pipeDrop                  // take one and have it leave mid-MVM
)

// pipeTestHook lets tests force the helper on, off, or out mid-MVM, and
// counts the groups helpers precompute. Never set in production.
type pipeTestHook struct {
	mode      pipeMode
	dropAfter int32
	helped    atomic.Int64
}

var pipeHook atomic.Pointer[pipeTestHook]

// startPipeline arms the ring for one MVM over m and, if the gate allows,
// hands the Scratch to a helper.
func (s *Scratch) startPipeline(m *MappedMatrix) {
	p := &s.pipe
	p.m = m
	p.total = int32(len(m.chunks) * len(m.chunks[0].groups))
	p.claimed.Store(0)
	p.consumed.Store(0)
	for i := range p.ready {
		p.ready[i].Store(0)
	}
	if m.PhysicalRows < pipeMinRows {
		return
	}
	procs := int32(runtime.GOMAXPROCS(0))
	p.procs, p.drop = procs, 0
	gated := true
	if h := pipeHook.Load(); h != nil {
		switch h.mode {
		case pipeOff:
			return
		case pipeOn:
			gated, p.procs = false, math.MaxInt32
		case pipeDrop:
			gated, p.procs, p.drop = false, math.MaxInt32, h.dropAfter
		}
	}
	// Reserve the helper's place in kernelWorkers before it exists, so two
	// callers cannot both claim the last idle core.
	for {
		c := kernelWorkers.Load()
		if gated && c >= procs {
			return
		}
		if kernelWorkers.CompareAndSwap(c, c+1) {
			break
		}
	}
	p.helping.Store(true)
	if !offerHelper(s, procs) {
		p.helping.Store(false)
		kernelWorkers.Add(-1)
	}
}

// offerHelper hands s to a parked helper, starting one if fewer than
// max(1, procs-1) exist. It reports whether a helper took s.
func offerHelper(s *Scratch, procs int32) bool {
	select {
	case pipeJobs <- s:
		return true
	default:
	}
	for {
		n := pipeHelpers.Load()
		if n >= max(1, procs-1) {
			return false
		}
		if pipeHelpers.CompareAndSwap(n, n+1) {
			break
		}
	}
	go runHelper()
	pipeJobs <- s
	return true
}

// runHelper is one pooled helper. The pool is bounded and lives as long as
// the process: a parked helper holds only its stack, and every MVM it
// serves waits for it to leave before returning.
func runHelper() {
	for s := range pipeJobs {
		s.help()
	}
}

// help precomputes groups ahead of the caller until every group is
// claimed, the caller quits, or the machine gets busy.
func (s *Scratch) help() {
	p := &s.pipe
	var filled int32
	rows := 0
	for !p.quit.Load() && kernelWorkers.Load() <= p.procs && (p.drop == 0 || filled < p.drop) {
		if p.claimed.Load() >= p.total {
			break
		}
		if n := s.fillNext(&p.kn); n > 0 {
			filled++
			if rows += n; rows < pipeYieldRows {
				continue
			}
		}
		// Yield whenever the ring is full, and every pipeYieldRows word
		// lines otherwise. The gate only knows kernel goroutines; request
		// handlers, the coalescer and the clients that feed them would
		// otherwise wait for the next preemption tick (10 ms) to get this
		// core back.
		rows = 0
		runtime.Gosched()
	}
	if h := pipeHook.Load(); h != nil {
		h.helped.Add(int64(filled))
	}
	kernelWorkers.Add(-1)
	p.helping.Store(false)
}

// fill precomputes group g of the current MVM into its ring slot, as a
// batch of one, using the given precompute scratch.
func (s *Scratch) fill(g int, kn *batchKernel) {
	p := &s.pipe
	grp, c := p.m.groupAt(g)
	one := [1]mvmImage{{scr: s}}
	grp.precompute(p.m, c, one[:], g%pipeDepth, &s.sn, kn)
}

// fillNext precomputes the next unclaimed group and marks it ready, if the
// ring has a free slot for it (the caller has released the group that slot
// last held). It returns the group's word-line count, 0 if it filled none.
func (s *Scratch) fillNext(kn *batchKernel) int {
	p := &s.pipe
	g := p.claimed.Load()
	if g >= p.total || g-p.consumed.Load() >= pipeDepth || !p.claimed.CompareAndSwap(g, g+1) {
		return 0
	}
	s.fill(int(g), kn)
	p.ready[g%pipeDepth].Store(g + 1)
	grp, _ := p.m.groupAt(int(g))
	return grp.arr.Rows
}

// awaitGroup returns group g's precomputed row reads, filling them inline
// unless a helper already claimed the group. While a helper is still
// filling g, the caller fills the next free group instead of idling, so
// whichever side is faster takes the larger share.
func (s *Scratch) awaitGroup(g int) []rowRead {
	p := &s.pipe
	slot := g % pipeDepth
	for p.ready[slot].Load() != int32(g+1) {
		if p.claimed.CompareAndSwap(int32(g), int32(g+1)) {
			s.fill(g, &s.kn)
			break
		}
		if s.fillNext(&s.kn) == 0 {
			runtime.Gosched()
		}
	}
	return s.slots[slot]
}

// releaseGroup frees group g's slot for the helper.
func (s *Scratch) releaseGroup(g int) {
	s.pipe.consumed.Store(int32(g + 1))
}

// endPipeline waits until any helper has left the Scratch, so no helper
// outlives its MVM (nor, with it, the layer's read lock).
func (s *Scratch) endPipeline() {
	p := &s.pipe
	if p.helping.Load() {
		p.quit.Store(true)
		for p.helping.Load() {
			runtime.Gosched()
		}
		p.quit.Store(false)
	}
	p.m = nil
}
