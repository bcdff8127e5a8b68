package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// MVMFunc computes y = W*x on an external engine (the crossbar simulator).
// x is the layer's flattened input (or one convolution patch); the result
// has one entry per output row of the layer's weight matrix.
type MVMFunc func(x []float64) []float64

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output and caches what Backward needs.
	Forward(x *Tensor) *Tensor
	// Backward consumes dL/dout, accumulates parameter gradients, and
	// returns dL/din.
	Backward(grad *Tensor) *Tensor
	// Params returns the trainable parameters (nil for stateless layers).
	Params() []*Param
	// OutShape maps an input shape to the layer's output shape.
	OutShape(in []int) []int
	// Name identifies the layer type in logs and DESIGN bookkeeping.
	Name() string
}

// InferenceLayer is implemented by layers whose arithmetic the accelerator
// can take over: ForwardWith runs the forward pass using the supplied MVM
// in place of the internal matrix product.
type InferenceLayer interface {
	Layer
	ForwardWith(x *Tensor, mvm MVMFunc) *Tensor
}

// Param is one trainable weight array with its gradient and momentum state.
// Grad is allocated by the first Backward and Vel by the first training
// step, so a network that only loads weights and serves holds neither.
type Param struct {
	W, Grad, Vel []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n)}
}

// grads returns the gradient buffer, allocating it on first use.
func (p *Param) grads() []float64 {
	if p.Grad == nil {
		p.Grad = make([]float64, len(p.W))
	}
	return p.Grad
}

// mvmSteps is implemented by the layers an engine can take over: their
// mapped forward pass is a fixed sequence of MVMs, exposed step by step so
// one walk can run MVM k of several images together. beginMVMs checks the
// input and returns the output tensor with the pass's MVM count; mvmInput
// returns MVM k's input vector (valid until the next call); mvmOutput
// stores MVM k's result.
type mvmSteps interface {
	beginMVMs(x *Tensor) (out *Tensor, n int)
	mvmInput(x, out *Tensor, k int) []float64
	mvmOutput(out *Tensor, k int, y []float64)
}

// forwardSteps runs a mapped layer's forward pass with one external MVM.
func forwardSteps(l mvmSteps, x *Tensor, mvm MVMFunc) *Tensor {
	out, n := l.beginMVMs(x)
	for k := 0; k < n; k++ {
		l.mvmOutput(out, k, mvm(l.mvmInput(x, out, k)))
	}
	return out
}

// Dense is a fully connected layer: y = W*x + b, W is Out x In row-major.
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	lastIn  *Tensor
	reuse   bool
	outBuf  *Tensor
}

func (d *Dense) enableReuse() { d.reuse = true }

// NewDense builds a dense layer with He-uniform initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Weight: newParam(in * out), Bias: newParam(out)}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range d.Weight.W {
		d.Weight.W[i] = (2*rng.Float64() - 1) * bound
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%dx%d)", d.Out, d.In) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int { return []int{d.Out} }

// WeightAt returns W[r][c]; the accelerator mapper reads weights through
// this to stay layout-agnostic.
func (d *Dense) WeightAt(r, c int) float64 { return d.Weight.W[r*d.In+c] }

// Forward implements Layer.
func (d *Dense) Forward(x *Tensor) *Tensor {
	return d.ForwardWith(x, nil)
}

// ForwardWith implements InferenceLayer.
func (d *Dense) ForwardWith(x *Tensor, mvm MVMFunc) *Tensor {
	if mvm != nil {
		return forwardSteps(d, x, mvm)
	}
	out, _ := d.beginMVMs(x)
	for r := 0; r < d.Out; r++ {
		row := d.Weight.W[r*d.In : (r+1)*d.In]
		s := 0.0
		for c, xv := range x.Data {
			s += row[c] * xv
		}
		out.Data[r] = s + d.Bias.W[r]
	}
	return out
}

func (d *Dense) beginMVMs(x *Tensor) (*Tensor, int) {
	if x.Len() != d.In {
		panic(fmt.Sprintf("nn: dense input %d, want %d", x.Len(), d.In))
	}
	d.lastIn = x
	return outVec(&d.outBuf, d.reuse, d.Out), 1
}

func (d *Dense) mvmInput(x, _ *Tensor, _ int) []float64 { return x.Data }

func (d *Dense) mvmOutput(out *Tensor, _ int, y []float64) {
	for r := range out.Data {
		out.Data[r] = y[r] + d.Bias.W[r]
	}
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	x := d.lastIn
	din := NewTensor(d.In)
	wg, bg := d.Weight.grads(), d.Bias.grads()
	for r := 0; r < d.Out; r++ {
		g := grad.Data[r]
		bg[r] += g
		row := d.Weight.W[r*d.In : (r+1)*d.In]
		grow := wg[r*d.In : (r+1)*d.In]
		for c := 0; c < d.In; c++ {
			grow[c] += g * x.Data[c]
			din.Data[c] += g * row[c]
		}
	}
	return din
}

// Conv2D is a 2-D convolution over CHW tensors with square stride and
// symmetric zero padding. Weights are stored as an OutC x (InC*KH*KW)
// matrix, which is exactly the MVM the crossbar performs per output
// position.
type Conv2D struct {
	InC, OutC, KH, KW int
	Stride, Pad       int
	Weight            *Param
	Bias              *Param
	lastIn            *Tensor
	reuse             bool
	outBuf            *Tensor
	patchBuf          []float64
}

func (c *Conv2D) enableReuse() { c.reuse = true }

// NewConv2D builds a convolution layer with He-uniform initialization.
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		Weight: newParam(outC * inC * kh * kw), Bias: newParam(outC)}
	fanIn := float64(inC * kh * kw)
	bound := math.Sqrt(6.0 / fanIn)
	for i := range c.Weight.W {
		c.Weight.W[i] = (2*rng.Float64() - 1) * bound
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv(%d->%d,%dx%d,s%d,p%d)", c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// PatchLen is the flattened patch size, the column count of the layer's
// weight matrix.
func (c *Conv2D) PatchLen() int { return c.InC * c.KH * c.KW }

// WeightAt returns row oc, column k of the weight matrix.
func (c *Conv2D) WeightAt(oc, k int) float64 { return c.Weight.W[oc*c.PatchLen()+k] }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: conv input shape %v, want [%d H W]", in, c.InC))
	}
	oh := (in[1]+2*c.Pad-c.KH)/c.Stride + 1
	ow := (in[2]+2*c.Pad-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output collapsed for input %v", in))
	}
	return []int{c.OutC, oh, ow}
}

// Patch extracts the flattened input patch feeding output position
// (oy, ox) into buf (length PatchLen), zero-filling the padding.
func (c *Conv2D) Patch(x *Tensor, oy, ox int, buf []float64) {
	_, h, w := x.chw()
	i := 0
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.KH; ky++ {
			iy := oy*c.Stride + ky - c.Pad
			for kx := 0; kx < c.KW; kx++ {
				ix := ox*c.Stride + kx - c.Pad
				if iy < 0 || iy >= h || ix < 0 || ix >= w {
					buf[i] = 0
				} else {
					buf[i] = x.At(ic, iy, ix)
				}
				i++
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor) *Tensor {
	return c.ForwardWith(x, nil)
}

// ForwardWith implements InferenceLayer: when mvm is non-nil every patch
// product K*patch runs on the external engine, one MVM per output position.
func (c *Conv2D) ForwardWith(x *Tensor, mvm MVMFunc) *Tensor {
	if mvm != nil {
		return forwardSteps(c, x, mvm)
	}
	out, n := c.beginMVMs(x)
	ow := out.Shape[2]
	for k := 0; k < n; k++ {
		patch := c.mvmInput(x, out, k)
		for oc := 0; oc < c.OutC; oc++ {
			row := c.Weight.W[oc*len(patch) : (oc+1)*len(patch)]
			s := c.Bias.W[oc]
			for i, pv := range patch {
				s += row[i] * pv
			}
			out.SetAt(oc, k/ow, k%ow, s)
		}
	}
	return out
}

func (c *Conv2D) beginMVMs(x *Tensor) (*Tensor, int) {
	c.lastIn = x
	os := c.OutShape(x.Shape)
	if pl := c.PatchLen(); !c.reuse || cap(c.patchBuf) < pl {
		c.patchBuf = make([]float64, pl)
	}
	return outTensor(&c.outBuf, c.reuse, os), os[1] * os[2]
}

// mvmInput gathers the patch of output position k (row-major) into the
// layer's patch buffer.
func (c *Conv2D) mvmInput(x, out *Tensor, k int) []float64 {
	ow := out.Shape[2]
	c.Patch(x, k/ow, k%ow, c.patchBuf)
	return c.patchBuf
}

func (c *Conv2D) mvmOutput(out *Tensor, k int, y []float64) {
	ow := out.Shape[2]
	for oc := 0; oc < c.OutC; oc++ {
		out.SetAt(oc, k/ow, k%ow, y[oc]+c.Bias.W[oc])
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Tensor) *Tensor {
	x := c.lastIn
	_, h, w := x.chw()
	din := NewTensor(x.Shape...)
	oh, ow := grad.Shape[1], grad.Shape[2]
	pl := c.PatchLen()
	wg, bg := c.Weight.grads(), c.Bias.grads()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for oc := 0; oc < c.OutC; oc++ {
				g := grad.At(oc, oy, ox)
				if g == 0 {
					continue
				}
				bg[oc] += g
				row := c.Weight.W[oc*pl : (oc+1)*pl]
				grow := wg[oc*pl : (oc+1)*pl]
				i := 0
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.KW; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								grow[i] += g * x.At(ic, iy, ix)
								din.Data[(ic*h+iy)*w+ix] += g * row[i]
							}
							i++
						}
					}
				}
			}
		}
	}
	return din
}

// ReLU is the rectified-linear activation.
type ReLU struct {
	lastOut *Tensor
	reuse   bool
	outBuf  *Tensor
}

func (r *ReLU) enableReuse() { r.reuse = true }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor) *Tensor {
	out := outTensor(&r.outBuf, r.reuse, x.Shape)
	for i, v := range x.Data {
		if v < 0 {
			out.Data[i] = 0
		} else {
			out.Data[i] = v
		}
	}
	r.lastOut = out
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	din := grad.Clone()
	for i, v := range r.lastOut.Data {
		if v <= 0 {
			din.Data[i] = 0
		}
	}
	return din
}

// MaxPool2D is non-overlapping max pooling over CHW tensors.
type MaxPool2D struct {
	Size    int
	lastIn  *Tensor
	lastIdx []int
	reuse   bool
	outBuf  *Tensor
}

func (m *MaxPool2D) enableReuse() { m.reuse = true }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%d)", m.Size) }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	return []int{in[0], in[1] / m.Size, in[2] / m.Size}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *Tensor) *Tensor {
	m.lastIn = x
	os := m.OutShape(x.Shape)
	out := outTensor(&m.outBuf, m.reuse, os)
	if m.reuse && cap(m.lastIdx) >= out.Len() {
		m.lastIdx = m.lastIdx[:out.Len()]
	} else {
		m.lastIdx = make([]int, out.Len())
	}
	_, h, w := x.chw()
	i := 0
	for c := 0; c < os[0]; c++ {
		for oy := 0; oy < os[1]; oy++ {
			for ox := 0; ox < os[2]; ox++ {
				bestIdx := -1
				best := math.Inf(-1)
				for ky := 0; ky < m.Size; ky++ {
					for kx := 0; kx < m.Size; kx++ {
						iy, ix := oy*m.Size+ky, ox*m.Size+kx
						idx := (c*h+iy)*w + ix
						if v := x.Data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				out.Data[i] = best
				m.lastIdx[i] = bestIdx
				i++
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *Tensor) *Tensor {
	din := NewTensor(m.lastIn.Shape...)
	for i, g := range grad.Data {
		din.Data[m.lastIdx[i]] += g
	}
	return din
}

// Flatten reshapes CHW activations to a vector.
type Flatten struct {
	lastShape []int
	reuse     bool
	view      *Tensor
}

func (f *Flatten) enableReuse() { f.reuse = true }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor) *Tensor {
	f.lastShape = x.Shape
	if f.reuse {
		// The flattened result is a view over x's data; cache the header and
		// repoint it instead of allocating a fresh one per pass.
		if f.view == nil || f.view.Shape[0] != x.Len() {
			f.view = x.Reshape(x.Len())
		} else {
			f.view.Data = x.Data
		}
		return f.view
	}
	return x.Reshape(x.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *Tensor) *Tensor {
	return grad.Reshape(f.lastShape...)
}
