package nn

import (
	"fmt"
	"runtime"
	"slices"
)

// BatchMVMFunc evaluates one mapped layer's MVM for several lockstep
// forward passes at once. layer is the layer's index, idx the lane indices
// evaluated (ascending), and xs their per-lane input vectors (aligned with
// idx). It returns the per-lane outputs aligned with idx; a nil outs[j]
// fails lane idx[j] without disturbing its batchmates, with errs[j] (when
// errs is non-nil) as the reason. Output slices only need to stay valid
// until the walk stores them (Dense/Conv2D copy the MVM result into their
// own buffers immediately), so per-lane scratch may be reused across calls.
type BatchMVMFunc func(layer int, idx []int, xs [][]float64) (outs [][]float64, errs []error)

// fbLane is one image's forward pass: a private network clone, the
// activation it has reached, and the mapped layer output under
// construction.
type fbLane struct {
	net   *Network
	x     *Tensor
	steps mvmSteps // the current mapped layer
	out   *Tensor
	n     int // MVMs the current mapped layer makes for this lane
	err   error
}

// ForwardBatcher runs B forward passes in lockstep over per-lane clones of
// one network, on the caller's goroutine: layer by layer, every live lane
// runs its digital layers on its own clone, and at a mapped layer MVM k of
// every lane is evaluated in one batched call (one call per Dense, one per
// output position of a Conv2D). Each lane's MVMs therefore happen in
// exactly the order its own serial forward pass makes them, so per-lane
// noise streams draw what a serial pass would. A panic in a lane's own
// layers fails that lane alone. It is not safe for concurrent use.
type ForwardBatcher struct {
	net    *Network // the network every lane clones
	layers []int    // mapped layer indices
	lanes  []fbLane

	// reusable per-Run state
	outs []*Tensor
	errs []error
	idx  []int
	xs   [][]float64
	perr []error
	// one-lane backing of the slices above, so a batcher that only ever
	// runs one image at a time (a serial session) allocates none of them
	outs1 [1]*Tensor
	errs1 [1]error
	idx1  [1]int
	xs1   [1][]float64
}

// NewForwardBatcher builds a batcher whose lanes run buffer-reusing
// inference clones of net and hand the given mapped layer indices (kept,
// not copied) to the batched MVM. Lanes are cloned lazily as batch sizes
// grow and reused across runs.
func NewForwardBatcher(net *Network, layers []int) *ForwardBatcher {
	fb := &ForwardBatcher{net: net, layers: layers}
	fb.outs, fb.errs, fb.idx, fb.xs = fb.outs1[:0], fb.errs1[:0], fb.idx1[:0], fb.xs1[:0]
	return fb
}

// guard turns a panic in the lane's own layer code (an input shape
// mismatch, say) into the lane's error.
func (l *fbLane) guard() {
	if r := recover(); r != nil {
		l.err = fmt.Errorf("nn: forward lane panic: %v", r)
	}
}

func (l *fbLane) forward(layer Layer) {
	defer l.guard()
	l.x = layer.Forward(l.x)
}

func (l *fbLane) begin(layer Layer) {
	defer l.guard()
	st, ok := layer.(mvmSteps)
	if !ok {
		panic(fmt.Sprintf("nn: layer %s cannot host an external MVM", layer.Name()))
	}
	l.steps = st
	l.out, l.n = st.beginMVMs(l.x)
}

func (l *fbLane) input(k int) []float64 {
	defer l.guard()
	return l.steps.mvmInput(l.x, l.out, k)
}

func (l *fbLane) output(k int, y []float64) {
	defer l.guard()
	l.steps.mvmOutput(l.out, k, y)
}

// Run executes one lockstep batch. It returns per-image outputs and errors,
// aligned with xs; outs[i] is nil exactly when errs[i] is non-nil. A failed
// image (bad shape, failed batched MVM) never fails its batchmates. Both
// returned slices and the output tensors are reused by the next Run.
func (fb *ForwardBatcher) Run(xs []*Tensor, mvm BatchMVMFunc) ([]*Tensor, []error) {
	if len(xs) == 0 {
		return fb.outs[:0], fb.errs[:0]
	}
	for len(fb.lanes) < len(xs) {
		net := fb.net.CloneForInference()
		net.EnableBufferReuse()
		fb.lanes = append(fb.lanes, fbLane{net: net})
	}
	lanes := fb.lanes[:len(xs)]
	for i := range lanes {
		lanes[i].x, lanes[i].err = xs[i], nil
	}
	for li := range fb.net.Layers {
		if slices.Contains(fb.layers, li) {
			// A multi-image pass holds its core for many images' work, so
			// it yields the core at each mapped layer: otherwise the
			// goroutines that feed a serving worker (request handlers,
			// submitters, workers coalescing their share) wait for the
			// next preemption tick. A one-image pass does not; yielding
			// there slows CPU-bound evaluation loops such as the sweep.
			if len(lanes) > 1 {
				runtime.Gosched()
			}
			fb.mvmLayer(li, lanes, mvm)
			continue
		}
		for i := range lanes {
			if l := &lanes[i]; l.err == nil {
				l.forward(l.net.Layers[li])
			}
		}
	}
	fb.outs, fb.errs = fb.outs[:0], fb.errs[:0]
	for i := range lanes {
		l := &lanes[i]
		if l.err != nil {
			l.x = nil
		}
		fb.outs = append(fb.outs, l.x)
		fb.errs = append(fb.errs, l.err)
	}
	return fb.outs, fb.errs
}

// mvmLayer runs mapped layer li for every live lane: MVM k of all lanes
// that make a k-th MVM goes out in one batched call.
func (fb *ForwardBatcher) mvmLayer(li int, lanes []fbLane, mvm BatchMVMFunc) {
	n := 0
	for i := range lanes {
		if l := &lanes[i]; l.err == nil {
			l.begin(l.net.Layers[li])
			n = max(n, l.n)
		}
	}
	for k := 0; k < n; k++ {
		fb.idx, fb.xs = fb.idx[:0], fb.xs[:0]
		for i := range lanes {
			l := &lanes[i]
			if l.err != nil || k >= l.n {
				continue
			}
			if x := l.input(k); l.err == nil {
				fb.idx = append(fb.idx, i)
				fb.xs = append(fb.xs, x)
			}
		}
		if len(fb.idx) == 0 {
			break
		}
		outs, errs := fb.callMVM(li, fb.idx, fb.xs, mvm)
		for j, i := range fb.idx {
			l := &lanes[i]
			switch {
			case errs != nil && errs[j] != nil:
				l.err = errs[j]
			case outs == nil || outs[j] == nil:
				l.err = fmt.Errorf("nn: batched mvm failed at layer %d", li)
			default:
				l.output(k, outs[j])
			}
		}
	}
	for i := range lanes {
		if l := &lanes[i]; l.err == nil {
			l.x = l.out
		}
	}
}

// callMVM invokes the batched MVM callback, converting a panic into
// per-lane failures for just this call.
func (fb *ForwardBatcher) callMVM(layer int, idx []int, xs [][]float64, mvm BatchMVMFunc) (outs [][]float64, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			outs = nil
			fb.perr = fb.perr[:0]
			for range idx {
				fb.perr = append(fb.perr, fmt.Errorf("nn: batched mvm panic at layer %d: %v", layer, r))
			}
			errs = fb.perr
		}
	}()
	return mvm(layer, idx, xs)
}
