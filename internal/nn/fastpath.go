package nn

import (
	"fmt"

	"tango/internal/tensor"
)

// This file implements the opt-in fast-numerics tier of the compute engine.
// The default engine is bit-exact: it preserves the reference summation
// order of every kernel.  The fast tier trades that guarantee for
// throughput under a tolerance-based accuracy contract (validated by golden
// top-1 tests at the networks layer):
//
//   - NumericsFast lowers the heavy layers onto the prepacked FMA/AVX-512
//     GEMM kernels in package tensor: multiple independent accumulator
//     chains per output, so sums are reassociated but stay float32.
//   - NumericsInt8 additionally quantizes convolution and fully-connected
//     layers to symmetric per-channel int8 weights, with one activation
//     scale per (group, image) in a convolution and per call in a
//     fully-connected layer, accumulating exactly in int32 and dequantizing
//     at layer exit.
//     Layers without an int8 lowering (recurrent gates, normalization, ...)
//     run the NumericsFast float path.
//
// Weight panels are packed once per network (see the Packed* containers and
// the networks.Plan packing); steady-state inference performs no packing or
// heap allocation.  Results of the fast tier are identical for any worker
// count — row panels are tile-aligned — and a batch of one is bit-identical
// to its single sample, since every op picks its kernel from the sample
// count.  Unlike the reference tier, a fast-tier sample's bits depend on
// whether its batch holds one sample or several: from two samples (or
// sequences) on, a fully-connected layer and a recurrent gate run the tier's
// GEMM instead of its mat-vec (and under int8 a fully-connected layer
// quantizes its activations with one scale per call).

// Numerics selects the arithmetic contract of a Scratch.
type Numerics uint8

const (
	// NumericsReference is the default bit-exact engine.
	NumericsReference Numerics = iota
	// NumericsFast selects the reassociated-float32 FMA/AVX-512 tier.
	NumericsFast
	// NumericsInt8 selects the quantized tier (conv/FC layers int8, the
	// rest as NumericsFast).
	NumericsInt8
)

// String returns the canonical flag spelling of the mode.
func (m Numerics) String() string {
	switch m {
	case NumericsFast:
		return "fast"
	case NumericsInt8:
		return "int8"
	default:
		return "reference"
	}
}

// ParseNumerics parses a mode name as spelled by String, accepting the
// common aliases "ref" and "fastmath".
func ParseNumerics(name string) (Numerics, error) {
	switch name {
	case "", "reference", "ref":
		return NumericsReference, nil
	case "fast", "fastmath":
		return NumericsFast, nil
	case "int8":
		return NumericsInt8, nil
	}
	return NumericsReference, fmt.Errorf("nn: unknown numerics mode %q (want reference, fast or int8)", name)
}

// SetNumerics selects the arithmetic tier for subsequent engine calls.
func (s *Scratch) SetNumerics(m Numerics) { s.numerics = m }

// Numerics returns the active arithmetic tier (NumericsReference when the
// direct reference kernels are forced).
func (s *Scratch) Numerics() Numerics {
	if s.direct {
		return NumericsReference
	}
	return s.numerics
}

// u8buf returns the quantized-activation staging buffer for the given slot.
func (s *Scratch) u8buf(slot, n int) []uint8 {
	for len(s.u8bufs) <= slot {
		s.u8bufs = append(s.u8bufs, nil)
	}
	return grown(&s.u8bufs[slot], n)
}

// accbuf returns the int32 accumulator staging buffer of the int8 GEMM for
// the given slot (one slot per worker on the fused parallel path).
func (s *Scratch) accbuf(slot, n int) []int32 {
	for len(s.accbs) <= slot {
		s.accbs = append(s.accbs, nil)
	}
	return grown(&s.accbs[slot], n)
}

// ConvPack holds a convolution layer's weights packed for the fast tier:
// one pack per channel group (fast float panels, int8 panels, or both,
// depending on the mode it was built for).  Immutable and safe for
// concurrent use by any number of Scratches.
type ConvPack struct {
	f []*tensor.PackedA
	q []*tensor.PackedInt8
}

// FCPack holds a fully-connected layer's weights packed for the fast tier.
type FCPack struct {
	f *tensor.PackedA
	q *tensor.PackedInt8
}

// gatePack holds one recurrent gate's input and recurrent weight matrices
// packed for the fast GEMM of two or more sequences (one sequence runs the
// multi-chain mat-vec on the raw weights and needs no packing).
type gatePack struct {
	wx, uh *tensor.PackedA
}

// RNNPack holds packed gates of a recurrent cell, in cell order (LSTM:
// i, f, o, c; GRU: r, z, h).
type RNNPack struct {
	gates []gatePack
}

// gate returns gate g's pack, or nil from a nil pack.
func (pk *RNNPack) gate(g int) *gatePack {
	if pk == nil {
		return nil
	}
	return &pk.gates[g]
}

// Bytes returns the storage held by the pack's panel buffers.
func (pk *ConvPack) Bytes() int64 {
	if pk == nil {
		return 0
	}
	var n int64
	for _, p := range pk.f {
		n += p.Bytes()
	}
	for _, p := range pk.q {
		n += p.Bytes()
	}
	return n
}

// Bytes returns the storage held by the pack's panel buffers.
func (pk *FCPack) Bytes() int64 {
	if pk == nil {
		return 0
	}
	return pk.f.Bytes() + pk.q.Bytes()
}

// Bytes returns the storage held by the pack's panel buffers.
func (pk *RNNPack) Bytes() int64 {
	if pk == nil {
		return 0
	}
	var n int64
	for _, g := range pk.gates {
		n += g.wx.Bytes() + g.uh.Bytes()
	}
	return n
}

// PackConv packs conv weights (outC x inC/groups x kh x kw) for the given
// mode, int8 packs in the depth order of u8Order.  Returns nil for
// NumericsReference.
func PackConv(weights *tensor.Tensor, p ConvParams, mode Numerics) *ConvPack {
	if mode == NumericsReference || weights == nil {
		return nil
	}
	groups := p.groups()
	outCPerGroup := p.OutChannels / groups
	k := (p.InChannels / groups) * p.KernelH * p.KernelW
	w := weights.Data()
	pk := &ConvPack{}
	var from []int32
	if mode == NumericsInt8 {
		_, kwPad := u8Order(p)
		from = make([]int32, k/p.KernelW*kwPad)
		u8Depth(p, from, nil, 0, 0)
	}
	for g := 0; g < groups; g++ {
		block := w[g*outCPerGroup*k : (g+1)*outCPerGroup*k]
		if mode == NumericsInt8 {
			pk.q = append(pk.q, tensor.PackInt8(block, outCPerGroup, k).PermuteCols(from))
		} else {
			pk.f = append(pk.f, tensor.PackA(block, outCPerGroup, k))
		}
	}
	return pk
}

// PackFC packs fully-connected weights (outF x inF) for the given mode.
// Returns nil for NumericsReference.
func PackFC(weights *tensor.Tensor, outF, inF int, mode Numerics) *FCPack {
	if mode == NumericsReference || weights == nil {
		return nil
	}
	if mode == NumericsInt8 {
		return &FCPack{q: tensor.PackInt8(weights.Data(), outF, inF)}
	}
	return &FCPack{f: tensor.PackA(weights.Data(), outF, inF)}
}

// PackLSTM packs the gate matrices of an LSTM cell for the fast GEMM of two
// or more sequences.  Int8 mode packs the same float panels: recurrent cells
// run the NumericsFast path under either fast tier.  Returns nil for
// NumericsReference.
func PackLSTM(w *LSTMWeights, mode Numerics) *RNNPack {
	if mode == NumericsReference || w == nil {
		return nil
	}
	return packCell(w, w.Hidden, w.Input, LSTMParams[:])
}

// PackGRU is PackLSTM for a GRU cell.
func PackGRU(w *GRUWeights, mode Numerics) *RNNPack {
	if mode == NumericsReference || w == nil {
		return nil
	}
	return packCell(w, w.Hidden, w.Input, GRUParams[:])
}

// packCell packs every gate's input and recurrent matrix from a cell's
// parameter table, whose first and second thirds hold them in gate order.
func packCell[W any](w *W, hidden, input int, params []Param[W]) *RNNPack {
	gates := len(params) / 3
	pk := &RNNPack{gates: make([]gatePack, gates)}
	for g := range pk.gates {
		pk.gates[g] = gatePack{
			wx: tensor.PackA((*params[g].Field(w)).Data(), hidden, input),
			uh: tensor.PackA((*params[gates+g].Field(w)).Data(), hidden, hidden),
		}
	}
	return pk
}
