package accel

import (
	"repro/internal/crossbar"
	"repro/internal/fixed"
	"repro/internal/stats"
)

// Scratch is the per-session arena of the noisy-MVM hot path: every buffer
// MappedMatrix.MVM and group.read used to allocate per call lives here and
// is reused across calls, so a warm Forward performs zero heap allocations.
//
// Ownership rules:
//   - One Scratch belongs to exactly one evaluation goroutine (a Session
//     owns one per lane; so does each serving worker through its
//     Session). It must never be shared across concurrent MVMs. The
//     pipeline helper an MVM may borrow (see pipeline.go) works inside
//     that MVM's call only.
//   - Slices returned by MVM-internal paths (group lane reads, mask planes)
//     alias the arena and are only valid until the next MVM touches it.
//     The public MVM copies its result into a caller-owned slice; MVMInto
//     writes into the destination the caller provides.
//   - Buffers grow on demand and never shrink, so steady-state traffic over
//     a fixed topology reaches a fixed point with no allocation at all.
type Scratch struct {
	// qvals backs the quantized input vector; qscale is its scale.
	qvals  []uint64
	qscale float64
	// masks[c] are the input bit-plane masks of column chunk c, and
	// vsums[c] the sum of that chunk's quantized inputs.
	masks [][][]uint64
	vsums []int64
	// kn is the caller's one-image precompute scratch (a pipeline helper
	// keeps its own).
	kn batchKernel
	// slots is the ring of precomputed groups: slots[g%pipeDepth] holds
	// group g's row reads, indexed plane*rows+row.
	slots [pipeDepth][]rowRead
	// sn is the current MVM's view of the binomial table cache.
	sn   stats.BinomSnapshot
	pipe pipeline
	// kernelDepth nests beginKernel calls on the owning goroutine.
	kernelDepth int
	// acc is the internal-output accumulator of the shift-and-add
	// reduction across chunks and input bits.
	acc []int64
	// lanes receives each group read's unpacked lane values.
	lanes []uint64
	// plaus is the lane buffer of the miscorrection plausibility check,
	// separate from lanes so the check cannot clobber a live read result.
	plaus []uint64
	// out is the dequantized output buffer the Session MVM path hands to
	// the network layers (which copy it immediately).
	out []float64
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// loadInput quantizes x and slices its bit planes per column chunk of m,
// zeroing the accumulator for m's internal outputs.
func (s *Scratch) loadInput(m *MappedMatrix, x []float64) {
	qx := fixed.QuantizeUnsignedInto(s.qvals, x, m.cfg.InputBits)
	s.qvals, s.qscale = qx.Values, qx.Scale
	n := len(m.chunks)
	if cap(s.masks) < n {
		grown := make([][][]uint64, n)
		copy(grown, s.masks[:cap(s.masks)])
		s.masks = grown
	}
	if cap(s.vsums) < n {
		s.vsums = make([]int64, n)
	}
	s.masks, s.vsums = s.masks[:n], s.vsums[:n]
	for c, ch := range m.chunks {
		vals := qx.Values[ch.colLo:ch.colHi]
		s.masks[c] = crossbar.InputMasksInto(s.masks[c], vals, m.cfg.InputBits)
		var vsum int64
		for _, v := range vals {
			vsum += int64(v)
		}
		s.vsums[c] = vsum
	}
	internalOut := m.outDim
	if m.cfg.Encoding == EncodingDifferential {
		internalOut = 2 * m.outDim
	}
	if cap(s.acc) < internalOut {
		s.acc = make([]int64, internalOut)
	}
	s.acc = s.acc[:internalOut]
	clear(s.acc)
}

// livePlanes returns one bit per plane of masks, set when that plane drives
// at least one column.
func livePlanes(masks [][]uint64) uint64 {
	var live uint64
	for b, mask := range masks {
		for _, w := range mask {
			if w != 0 {
				live |= 1 << b
				break
			}
		}
	}
	return live
}

// accumulate adds one group read's lanes, read under input bit plane b, to
// the internal outputs the group serves.
func (s *Scratch) accumulate(g *group, lanes []uint64, b int) {
	for i, outRow := range g.outRows {
		s.acc[outRow] += int64(lanes[i]) << uint(b)
	}
}

// endChunk applies chunk c's offset-binary correction: subtract half *
// sum(inputs) from every internal row served by the chunk (Section VII-D
// negative-weight handling).
func (s *Scratch) endChunk(m *MappedMatrix, c int) {
	if m.cfg.Encoding != EncodingOffsetBinary {
		return
	}
	bias := fixed.BiasCorrection(m.cfg.WeightBits, s.vsums[c])
	for r := range s.acc {
		s.acc[r] -= bias
	}
}

// dequantize writes the accumulated outputs to out in float.
func (s *Scratch) dequantize(m *MappedMatrix, out []float64) {
	f := m.scale * s.qscale
	for r := range out {
		if m.cfg.Encoding == EncodingDifferential {
			out[r] = float64(s.acc[2*r]-s.acc[2*r+1]) * f
		} else {
			out[r] = float64(s.acc[r]) * f
		}
	}
}

// readsFor returns ring slot i sized for n row reads (contents stale; the
// precompute overwrites every entry).
func (s *Scratch) readsFor(i, n int) []rowRead {
	if cap(s.slots[i]) < n {
		s.slots[i] = make([]rowRead, n)
	}
	s.slots[i] = s.slots[i][:n]
	return s.slots[i]
}

// lanesFor returns the lane buffer for n operands (contents stale).
func (s *Scratch) lanesFor(n int) []uint64 {
	if cap(s.lanes) < n {
		s.lanes = make([]uint64, n)
	}
	return s.lanes[:n]
}

// plausFor returns the plausibility-check lane buffer (contents stale).
func (s *Scratch) plausFor(n int) []uint64 {
	if cap(s.plaus) < n {
		s.plaus = make([]uint64, n)
	}
	return s.plaus[:n]
}

// outFor returns the MVM output buffer for n outputs (contents stale;
// MVMInto overwrites every entry).
func (s *Scratch) outFor(n int) []float64 {
	if cap(s.out) < n {
		s.out = make([]float64, n)
	}
	return s.out[:n]
}
