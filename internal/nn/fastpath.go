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
// count — row panels are tile-aligned — but, unlike the reference tier, may
// differ between batched and single-sample execution (column tails depend
// on the GEMM width).

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
func (s *Scratch) SetNumerics(m Numerics) {
	if s != nil {
		s.numerics = m
	}
}

// Numerics returns the active arithmetic tier (NumericsReference for a nil
// Scratch or when the direct reference kernels are forced).
func (s *Scratch) Numerics() Numerics {
	if s == nil || s.direct {
		return NumericsReference
	}
	return s.numerics
}

// u8buf returns the quantized-activation staging buffer for the given slot.
func (s *Scratch) u8buf(slot, n int) []uint8 {
	for len(s.u8bufs) <= slot {
		s.u8bufs = append(s.u8bufs, nil)
	}
	if cap(s.u8bufs[slot]) < n {
		s.u8bufs[slot] = make([]uint8, n)
	}
	return s.u8bufs[slot][:n]
}

// accbuf returns the int32 accumulator staging buffer of the int8 GEMM for
// the given slot (one slot per worker on the fused parallel path).
func (s *Scratch) accbuf(slot, n int) []int32 {
	for len(s.accbs) <= slot {
		s.accbs = append(s.accbs, nil)
	}
	if cap(s.accbs[slot]) < n {
		s.accbs[slot] = make([]int32, n)
	}
	return s.accbs[slot][:n]
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

// GatePack holds one recurrent gate's input and recurrent weight matrices
// packed for the batched fast GEMM (the single-sample fast path reads the
// raw weights through the multi-chain mat-vec kernel and needs no packing).
type GatePack struct {
	wx, uh *tensor.PackedA
}

// RNNPack holds packed gates of a recurrent cell, in cell order (LSTM:
// i, f, o, c; GRU: r, z, h).
type RNNPack struct {
	gates []GatePack
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

// PackLSTM packs the gate matrices of an LSTM cell for the batched fast
// GEMM.  Int8 mode packs the same float panels: recurrent cells run the
// NumericsFast path under either fast tier.  Returns nil for
// NumericsReference.
func PackLSTM(w *LSTMWeights, mode Numerics) *RNNPack {
	if mode == NumericsReference || w == nil {
		return nil
	}
	packGate := func(wx, uh *tensor.Tensor) GatePack {
		return GatePack{
			wx: tensor.PackA(wx.Data(), w.Hidden, w.Input),
			uh: tensor.PackA(uh.Data(), w.Hidden, w.Hidden),
		}
	}
	return &RNNPack{gates: []GatePack{
		packGate(w.Wi, w.Ui), packGate(w.Wf, w.Uf),
		packGate(w.Wo, w.Uo), packGate(w.Wc, w.Uc),
	}}
}

// PackGRU packs the gate matrices of a GRU cell for the batched fast GEMM.
// Returns nil for NumericsReference.
func PackGRU(w *GRUWeights, mode Numerics) *RNNPack {
	if mode == NumericsReference || w == nil {
		return nil
	}
	packGate := func(wx, uh *tensor.Tensor) GatePack {
		return GatePack{
			wx: tensor.PackA(wx.Data(), w.Hidden, w.Input),
			uh: tensor.PackA(uh.Data(), w.Hidden, w.Hidden),
		}
	}
	return &RNNPack{gates: []GatePack{
		packGate(w.Wr, w.Ur), packGate(w.Wz, w.Uz), packGate(w.Wh, w.Uh),
	}}
}

// Conv2DPacked is Conv2D with an optional fast-tier weight pack.  It runs
// the tier selected by SetNumerics when the matching pack is available and
// falls back to the bit-exact engine otherwise.  Under a fast tier it is
// Conv2DBatchPacked at a batch of one: the same fused core, bit for bit.
func (s *Scratch) Conv2DPacked(input, weights, bias *tensor.Tensor, p ConvParams, pk *ConvPack) (*tensor.Tensor, error) {
	return s.convPacked(input, weights, bias, p, pk, 3)
}

// Conv2DBatchPacked is Conv2DBatch with an optional fast-tier weight pack.
func (s *Scratch) Conv2DBatchPacked(input, weights, bias *tensor.Tensor, p ConvParams, pk *ConvPack) (*tensor.Tensor, error) {
	return s.convPacked(input, weights, bias, p, pk, 4)
}

// convPacked is the fast-tier convolution of one CHW sample (rank 3) or an
// NCHW batch (rank 4): one convFused call (fastfused.go) for either tier
// and any batch size.  Without a pack for the active tier it is the
// reference convolution of that rank.
func (s *Scratch) convPacked(input, weights, bias *tensor.Tensor, p ConvParams, pk *ConvPack, rank int) (*tensor.Tensor, error) {
	mode := s.Numerics()
	int8Path := mode == NumericsInt8 && pk != nil && pk.q != nil
	if mode == NumericsReference || pk == nil || (!int8Path && pk.f == nil) {
		if rank == 3 {
			return s.Conv2D(input, weights, bias, p)
		}
		return s.Conv2DBatch(input, weights, bias, p)
	}
	nImg, inH, inW, outH, outW, err := checkConvArgs(input, weights, bias, p, rank)
	if err != nil {
		return nil, err
	}
	var out *tensor.Tensor
	if rank == 3 {
		out = s.out3(p.OutChannels, outH, outW)
	} else {
		out = s.out4(nImg, p.OutChannels, outH, outW)
	}
	var biasData []float32
	if bias != nil {
		biasData = bias.Data()
	}
	s.convFused(out.Data(), input.Data(), biasData, pk, p,
		nImg, input.Len()/nImg, inH, inW, outH, outW, int8Path)
	return out, nil
}

// FullyConnectedPacked is FullyConnected with an optional fast-tier weight
// pack.  The fast float path reads the raw weights (a mat-vec is
// memory-bound, packing buys nothing); the int8 path needs pk.
func (s *Scratch) FullyConnectedPacked(input, weights, bias *tensor.Tensor, outFeatures int, pk *FCPack) (*tensor.Tensor, error) {
	mode := s.Numerics()
	if mode == NumericsReference {
		return s.FullyConnected(input, weights, bias, outFeatures)
	}
	inFeatures, err := checkFullyConnectedArgs(input, weights, bias, outFeatures)
	if err != nil {
		return nil, err
	}
	out := s.out1(outFeatures)
	var biasData []float32
	if bias != nil {
		biasData = bias.Data()
	}
	if mode == NumericsInt8 && pk != nil && pk.q != nil {
		kPad := pk.q.KPad()
		xq := s.u8buf(0, kPad)
		xs := tensor.QuantizeU8(xq[:inFeatures], input.Data())
		tensor.MatVecInt8(out.Data(), pk.q, xq, biasData, xs, s.Workers())
		return out, nil
	}
	tensor.MatVecFastParallel(out.Data(), weights.Data(), input.Data(), biasData,
		outFeatures, inFeatures, s.Workers())
	return out, nil
}

// FullyConnectedBatchPacked is FullyConnectedBatch with an optional
// fast-tier weight pack.
func (s *Scratch) FullyConnectedBatchPacked(input, weights, bias *tensor.Tensor, outFeatures int, pk *FCPack) (*tensor.Tensor, error) {
	mode := s.Numerics()
	int8Path := mode == NumericsInt8 && pk != nil && pk.q != nil
	if mode == NumericsReference || pk == nil || (!int8Path && pk.f == nil) {
		return s.FullyConnectedBatch(input, weights, bias, outFeatures)
	}
	nImg, inF, err := checkFullyConnectedBatchArgs(input, weights, bias, outFeatures)
	if err != nil {
		return nil, err
	}
	var biasData []float32
	if bias != nil {
		biasData = bias.Data()
	}
	workers := s.Workers()
	out := s.out2(nImg, outFeatures)
	if int8Path {
		xT := s.batchBuf(0, inF*nImg)
		transposeToColumnsPar(xT, input.Data(), nImg, inF, workers)
		yT := s.batchBuf(1, outFeatures*nImg)
		kPad := pk.q.KPad()
		bp := s.u8buf(0, tensor.Int8PackedLen(kPad, nImg))
		acc := s.accbuf(0, tensor.Int8AccLen(outFeatures, nImg))
		xs := tensor.PackColsU8(bp, xT, inF, nImg, nImg, kPad)
		tensor.GemmInt8(yT, pk.q, bp, acc, biasData, xs, nImg, workers)
		transposeToRowsPar(out.Data(), yT, nImg, outFeatures, nImg, workers)
		return out, nil
	}
	// Fast float tier: pad the GEMM columns up to the 16-wide FMA tile so a
	// small batch (3, 8) runs the vector microkernel instead of falling into
	// the scalar column tail.  Pad lanes are zero and are never read back.
	ncol := (nImg + 15) &^ 15
	xT := s.batchBuf(0, inF*ncol)
	transposeToColumnsPad(xT, input.Data(), nImg, inF, ncol, workers)
	yT := s.batchBuf(1, outFeatures*ncol)
	tensor.GemmNNFastParallel(yT, pk.f, xT, biasData, ncol, ncol, workers)
	transposeToRowsPar(out.Data(), yT, nImg, outFeatures, ncol, workers)
	return out, nil
}

// gatePreBatchFast is gatePreBatch on the prepacked fast GEMM.
func (s *Scratch) gatePreBatchFast(pre, tmp []float32, g GatePack, b *tensor.Tensor, xT, hT []float32, hidden, n, workers int) {
	tensor.GemmNNFastParallel(pre, g.wx, xT, nil, n, n, workers)
	tensor.GemmNNFastParallel(tmp, g.uh, hT, nil, n, n, workers)
	bd := b.Data()
	for hr := 0; hr < hidden; hr++ {
		bv := bd[hr]
		prow := pre[hr*n : (hr+1)*n]
		trow := tmp[hr*n : (hr+1)*n]
		for i := range prow {
			prow[i] = (prow[i] + trow[i]) + bv
		}
	}
}
