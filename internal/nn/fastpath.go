package nn

import (
	"fmt"

	"tango/internal/tensor"
)

// This file implements the opt-in fast-numerics tiers of the compute engine
// and the weight packs that carry them.  The default engine is bit-exact: it
// preserves the reference summation order of every kernel.  The fast tiers
// trade that guarantee for throughput under a tolerance-based accuracy
// contract (validated by golden top-1 tests at the networks layer):
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
// A weighted op takes its kernels from the Pack it is handed and the sample
// count alone: a nil pack runs the reference kernels, float panels the fast
// ones and int8 panels the int8 ones.  The Scratch's tier (SetNumerics) is
// read only by LRN, which has no weights, and by networks.Plan, which hands
// every layer its tier's pack.  Packs are built once per network; steady-
// state inference performs no packing or heap allocation.  Results of the
// fast tiers are identical for any worker count — row panels are
// tile-aligned — and a batch of one is bit-identical to its single sample.
// Unlike the reference tier, a fast-tier sample's bits depend on whether its
// batch holds one sample or several: from two samples (or sequences) on, a
// fully-connected layer and a recurrent gate run the pack's GEMM instead of
// its mat-vec (and under int8 a fully-connected layer quantizes its
// activations with one scale per call).

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

// Pack holds a weighted layer's matrices packed for one fast tier, and its
// kind selects the layer's kernels: float panels the fast ones, int8 panels
// the int8 ones, and a nil *Pack the reference kernels on the raw weights.
// A convolution packs one matrix per channel group, a fully-connected layer
// its one matrix, and a recurrent cell every gate's input then recurrent
// matrix, in cell order (LSTM: i, f, o, c; GRU: r, z, h).  Immutable and
// safe for concurrent use by any number of Scratches.
type Pack struct {
	f []*tensor.PackedA
	q []*tensor.PackedInt8
}

// ConvPack and FCPack are Pack; kept for benchmark/, delete with ROADMAP 2a.
type (
	ConvPack = Pack
	FCPack   = Pack
)

// Bytes returns the storage held by the pack's panel buffers.
func (pk *Pack) Bytes() int64 {
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

// PackConv packs conv weights (outC x inC/groups x kh x kw) for the given
// mode, int8 packs in the depth order of u8Order.  Returns nil for
// NumericsReference.
func PackConv(weights *tensor.Tensor, p ConvParams, mode Numerics) *Pack {
	if mode == NumericsReference || weights == nil {
		return nil
	}
	groups := p.groups()
	outCPerGroup := p.OutChannels / groups
	k := (p.InChannels / groups) * p.KernelH * p.KernelW
	w := weights.Data()
	pk := &Pack{}
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
func PackFC(weights *tensor.Tensor, outF, inF int, mode Numerics) *Pack {
	if mode == NumericsReference || weights == nil {
		return nil
	}
	if mode == NumericsInt8 {
		return &Pack{q: []*tensor.PackedInt8{tensor.PackInt8(weights.Data(), outF, inF)}}
	}
	return &Pack{f: []*tensor.PackedA{tensor.PackA(weights.Data(), outF, inF)}}
}

// PackLSTM packs the gate matrices of an LSTM cell for the fast tier.  Int8
// mode packs the same float panels: a recurrent cell has no int8 kernels and
// runs the fast ones under either fast tier.  Returns nil for
// NumericsReference.
func PackLSTM(w *LSTMWeights, mode Numerics) *Pack {
	if mode == NumericsReference || w == nil {
		return nil
	}
	return packCell(w, w.Hidden, w.Input, LSTMParams[:])
}

// PackGRU is PackLSTM for a GRU cell.
func PackGRU(w *GRUWeights, mode Numerics) *Pack {
	if mode == NumericsReference || w == nil {
		return nil
	}
	return packCell(w, w.Hidden, w.Input, GRUParams[:])
}

// packCell packs every gate's input and recurrent matrix from a cell's
// parameter table, whose first and second thirds hold them in gate order:
// gate g's are the pack's matrices 2g and 2g+1.
func packCell[W any](w *W, hidden, input int, params []Param[W]) *Pack {
	gates := len(params) / 3
	pk := &Pack{}
	for g := 0; g < gates; g++ {
		pk.f = append(pk.f, tensor.PackA((*params[g].Field(w)).Data(), hidden, input),
			tensor.PackA((*params[gates+g].Field(w)).Data(), hidden, hidden))
	}
	return pk
}
