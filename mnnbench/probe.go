package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/accel"
	"repro/internal/nn"
)

// probeImages is how many images each accelerator probe times.
const probeImages = 8

// cellName labels a (network, scheme) pair in metric and span names.
func cellName(net string, s accel.Scheme) string { return net + "." + s.Name }

// probeMap times accel.Map for one cell under a span and returns the engine.
func probeMap(o opts, cell string, net *nn.Network, cfg accel.Config) (*accel.Engine, error) {
	id := o.tr.begin("accel.map."+cell, 0, 0)
	eng, err := accel.Map(net, cfg)
	o.tr.end(id)
	return eng, err
}

// probeEngine times the accelerator layers of one mapped engine in a traced
// run: Session.Forward per image, and the same images walked layer by layer
// with InferenceNet().ForwardWith over Session.MVMLayer, one span per layer
// MVM under one span per walk (a convolution makes one MVM per output
// position; accel.mvm_ms sums them per image). The walk must give logits
// bit-identical to Session.Forward for the same stream — otherwise the trace
// would be timing a different program — and a mismatch fails the run. With
// batch set it also times Session.ForwardBatch over a coalesced batch of
// maxBatch images.
func probeEngine(o opts, rep *report, cell string, eng *accel.Engine, images []nn.Example, batch bool) {
	n := min(probeImages, len(images))
	sess := eng.NewSession(0)
	walker := eng.NewSession(0)
	net := eng.InferenceNet()
	mvms := make([]nn.MVMFunc, len(net.Layers))
	walkSpan, walkReq := 0, 0
	for _, li := range eng.Layers() {
		li := li
		name := fmt.Sprintf("accel.mvm.%s.L%d", cell, li)
		mvms[li] = func(x []float64) []float64 {
			id := o.tr.begin(name, walkSpan, walkReq)
			out, _ := walker.MVMLayer(li, x)
			o.tr.end(id)
			return out
		}
	}
	for i := 0; i < n; i++ {
		stream := uint64(1000 + i)
		x := images[i].Input
		sess.Reseed(stream)
		id := o.tr.begin("accel.forward."+cell, 0, i)
		want := append([]float64(nil), sess.Forward(x).Data...)
		o.tr.end(id)

		walker.Reseed(stream)
		walkReq = i
		walkSpan = o.tr.begin("accel.walk."+cell, 0, i)
		got := net.ForwardWith(x, mvms).Data
		o.tr.end(walkSpan)
		if !bitIdentical(want, got) {
			rep.problem("%s: per-layer walk logits differ from Session.Forward for stream %d", cell, stream)
		}
	}
	rep.layer["accel.forward_ms.p50."+cell] = median(o.tr.durations("accel.forward." + cell))
	rep.layer["accel.walk_self_ms."+cell] = median(o.tr.selfTimes("accel.walk." + cell))
	for _, li := range eng.Layers() {
		name := fmt.Sprintf("%s.L%d", cell, li)
		rep.layer["accel.mvm_ms."+name] = median(o.tr.perRequest("accel.mvm." + name))
	}
	if !batch {
		return
	}
	xs := make([]*nn.Tensor, maxBatch)
	streams := make([]uint64, maxBatch)
	for i := range xs {
		xs[i] = images[i%len(images)].Input
		streams[i] = uint64(2000 + i)
	}
	defer sess.Close()
	var perImage []float64
	for r := 0; r < 3; r++ {
		id := o.tr.begin("accel.forward_batch."+cell, 0, r)
		t0 := time.Now()
		_, errs := sess.ForwardBatch(xs, streams)
		perImage = append(perImage, float64(time.Since(t0))/1e6/maxBatch)
		o.tr.end(id)
		for i, err := range errs {
			if err != nil {
				rep.problem("%s: ForwardBatch image %d: %v", cell, i, err)
			}
		}
	}
	rep.layer["accel.forward_batch_ms_per_image"] = median(perImage)
}

// probeSoft times the float reference forward pass of a network.
func probeSoft(o opts, rep *report, net *nn.Network, images []nn.Example) {
	soft := net.CloneForInference()
	for i := 0; i < min(probeImages, len(images)); i++ {
		id := o.tr.begin("nn.soft_forward."+net.Name, 0, i)
		soft.Forward(images[i].Input)
		o.tr.end(id)
	}
	rep.layer["nn.soft_forward_ms.p50."+net.Name] = median(o.tr.durations("nn.soft_forward." + net.Name))
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
