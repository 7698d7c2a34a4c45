package nn

import (
	"tango/internal/par"
	"tango/internal/tensor"
)

// This file implements the fused-staging convolution of the fast-numerics
// tier: instead of materializing the full l-major im2col matrix (k x
// N*outH*outW floats) and then running the packed GEMM over it, receptive-
// field patches stream directly from the padded input into L2-resident
// column panels that the GEMM microkernels consume in place, and the
// product lands straight in the NCHW output block (dst rows outH*outW
// floats apart via the two-stride kernels).  The staged colT buffer and
// the channel-major un-interleave copy of the old batched path are both
// gone.
//
// Geometry and determinism: each (group, image) output block is covered by
// a fixed grid of tensor.FusedNC-column panels; a panel is finished by
// walking depth in tensor.FusedKC slabs (pack slab, accumulate slab).  The
// grid depends only on the layer shape — never on the worker count — and
// panels cover disjoint output columns, so any fan-out of panels across
// workers produces identical bytes.  For a single sample the grid equals
// the staged fast path's column blocking, making the fused result
// bit-identical to the staged one; for a batch the grid is per-image
// (panels never straddle image boundaries), which differs from the old
// staged batch blocking only in float32 low bits (the tier's tolerance
// contract).
//
// The int8 tier quantizes per panel: float patch slabs are packed exactly
// as above, quantized into the kernel's u8 tile layout panel by panel, and
// one exact-int32 panel GEMM dequantizes straight into the output block.
// The activation scale is per (group, image), computed from that image's
// group input planes — a superset of every patch value, so the clamp-free
// quantizer stays in range, the scale is independent of the panel grid and
// worker count, and batching never coarsens a sample's quantization step
// (a batch-wide scale would let one large-magnitude image cost every other
// image resolution).

// convFused runs the fused fast-tier convolution over nImg samples laid
// out sample-major in `in` (samples sampleStride floats apart), writing
// NCHW output planes into o.  pk must carry the pack matching int8Path.
func (s *Scratch) convFused(o, in, biasData []float32, pk *ConvPack, p ConvParams, nImg, sampleStride, inH, inW, outH, outW int, int8Path bool) {
	groups := p.groups()
	inCPerGroup := p.InChannels / groups
	outCPerGroup := p.OutChannels / groups
	n1 := outH * outW
	outSample := p.OutChannels * n1
	workers := s.Workers()
	oneByOne := !int8Path && p.KernelH == 1 && p.KernelW == 1 &&
		p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
	nPanels := (n1 + tensor.FusedNC - 1) / tensor.FusedNC
	tasks := nImg * nPanels
	ncMax := n1
	if ncMax > tensor.FusedNC {
		ncMax = tensor.FusedNC
	}
	var u8len, accLen int
	if int8Path {
		u8len = tensor.Int8PackedLen(pk.q[0].KPad(), ncMax)
		accLen = tensor.Int8AccLen(outCPerGroup, ncMax)
	}

	for g := 0; g < groups; g++ {
		oc0 := g * outCPerGroup
		icBase := g * inCPerGroup
		var gb []float32
		if biasData != nil {
			gb = biasData[oc0 : oc0+outCPerGroup]
		}
		if oneByOne {
			// 1x1/stride-1: the group's input planes ARE the B matrix
			// (k rows of n1 contiguous floats) — no patch extraction, no
			// panel packing, the GEMM streams the input in place.
			pa := pk.f[g]
			for img := 0; img < nImg; img++ {
				tensor.GemmNNFastStridedParallel(
					o[img*outSample+oc0*n1:], pa,
					in[img*sampleStride+icBase*n1:], gb, n1, n1, n1, workers)
			}
			continue
		}
		var scales []float32
		if int8Path {
			scales = s.qscaleBuf(nImg)
			for img := 0; img < nImg; img++ {
				planes := in[img*sampleStride+icBase*inH*inW:][:inCPerGroup*inH*inW]
				scales[img] = tensor.U8Scale(tensor.MaxAbs(planes))
			}
		}
		w := workers
		if w > tasks {
			w = tasks
		}
		if w <= 1 {
			// Serial path: no closures (they would escape and break the
			// engine's zero-alloc steady state).
			panel := s.panelBuf(0)
			if int8Path {
				pq := pk.q[g]
				u8p := s.u8buf(0, u8len)
				acc := s.accbuf(0, accLen)
				for t := 0; t < tasks; t++ {
					img, pi := t/nPanels, t%nPanels
					p0 := pi * tensor.FusedNC
					pw := n1 - p0
					if pw > tensor.FusedNC {
						pw = tensor.FusedNC
					}
					scale := scales[img]
					fusedConvPanelInt8(o[img*outSample+oc0*n1+p0:], in[img*sampleStride:],
						pq, gb, p, inH, inW, icBase, outH, outW, n1, p0, pw,
						panel, u8p, acc, 1/scale, scale)
				}
			} else {
				pa := pk.f[g]
				for t := 0; t < tasks; t++ {
					img, pi := t/nPanels, t%nPanels
					p0 := pi * tensor.FusedNC
					pw := n1 - p0
					if pw > tensor.FusedNC {
						pw = tensor.FusedNC
					}
					fusedConvPanel(o[img*outSample+oc0*n1+p0:], in[img*sampleStride:],
						pa, gb, p, inH, inW, icBase, outH, outW, n1, p0, pw, panel)
				}
			}
			continue
		}
		s.convFusedGroupPar(o, in, gb, pk, g, p, sampleStride, inH, inW, icBase,
			outH, outW, n1, outSample, oc0, nPanels, tasks, w, u8len, accLen,
			scales, int8Path)
	}
}

// convFusedGroupPar fans one group's (image, panel) tasks over the worker
// pool.  It lives in its own function so the closure below never forces the
// serial path's locals to the heap (convFused must stay closure-free for
// the zero-alloc steady state).  Worker wi owns tasks wi, wi+w, ... — a
// fixed assignment over the fixed panel grid, so the bytes written are
// identical for any worker count.
func (s *Scratch) convFusedGroupPar(o, in, gb []float32, pk *ConvPack, g int, p ConvParams, sampleStride, inH, inW, icBase, outH, outW, n1, outSample, oc0, nPanels, tasks, w, u8len, accLen int, scales []float32, int8Path bool) {
	// Pre-grow the per-worker buffers before fanning out: the slot helpers
	// may append/resize, which must not race.
	for wi := 0; wi < w; wi++ {
		s.panelBuf(wi)
		if int8Path {
			s.u8buf(wi, u8len)
			s.accbuf(wi, accLen)
		}
	}
	pq, pa := (*tensor.PackedInt8)(nil), (*tensor.PackedA)(nil)
	if int8Path {
		pq = pk.q[g]
	} else {
		pa = pk.f[g]
	}
	_ = par.ForEach(w, w, func(wi int) error {
		panel := s.panelBuf(wi)
		var u8p []uint8
		var acc []int32
		if int8Path {
			u8p = s.u8buf(wi, u8len)
			acc = s.accbuf(wi, accLen)
		}
		for t := wi; t < tasks; t += w {
			img, pi := t/nPanels, t%nPanels
			p0 := pi * tensor.FusedNC
			pw := n1 - p0
			if pw > tensor.FusedNC {
				pw = tensor.FusedNC
			}
			dst := o[img*outSample+oc0*n1+p0:]
			sample := in[img*sampleStride:]
			if int8Path {
				scale := scales[img]
				fusedConvPanelInt8(dst, sample, pq, gb, p, inH, inW, icBase,
					outH, outW, n1, p0, pw, panel, u8p, acc, 1/scale, scale)
			} else {
				fusedConvPanel(dst, sample, pa, gb, p, inH, inW, icBase,
					outH, outW, n1, p0, pw, panel)
			}
		}
		return nil
	})
}

// fusedConvPanel finishes one float column panel: for each FusedKC depth
// slab it packs the receptive-field patch block into panel and accumulates
// it onto the strided output block (bias-seeded at the first slab).
func fusedConvPanel(dst, sample []float32, pa *tensor.PackedA, gb []float32, p ConvParams, inH, inW, icBase, outH, outW, n1, p0, pw int, panel []float32) {
	k := pa.Cols()
	for kb := 0; kb < k; kb += tensor.FusedKC {
		kc := k - kb
		if kc > tensor.FusedKC {
			kc = tensor.FusedKC
		}
		packConvPanel(panel, sample, inH, inW, icBase, p, outH, outW, kb, kc, p0, pw)
		tensor.GemmNNFastAccumPanel(dst, pa, panel[:kc*pw], gb, kb, kc, pw, n1)
	}
}

// fusedConvPanelInt8 finishes one quantized column panel: float patch slabs
// are packed and quantized into the u8 tile layout (full padded depth, one
// panel), then a single exact-int32 panel GEMM dequantizes into the output.
func fusedConvPanelInt8(dst, sample []float32, pq *tensor.PackedInt8, gb []float32, p ConvParams, inH, inW, icBase, outH, outW, n1, p0, pw int, panel []float32, u8p []uint8, acc []int32, inv, scale float32) {
	k := pq.Cols()
	kPad := pq.KPad()
	tensor.BeginPanelU8(u8p, k, pw, kPad)
	for kb := 0; kb < k; kb += tensor.FusedKC {
		kc := k - kb
		if kc > tensor.FusedKC {
			kc = tensor.FusedKC
		}
		packConvPanel(panel, sample, inH, inW, icBase, p, outH, outW, kb, kc, p0, pw)
		tensor.QuantizePanelU8(u8p, panel[:kc*pw], kb, kc, pw, kPad, inv)
	}
	tensor.GemmInt8Panel(dst, pq, u8p, acc, gb, scale, pw, n1)
}

// packConvPanel streams the receptive-field patch block covering depth rows
// [kb, kb+kc) and output pixels [p0, p0+pw) of one sample into a compact
// kc x pw row-major panel.  Depth row l maps to kernel tap (ic, ky, kx)
// exactly as in the staged im2col, and padding positions are zero, so the
// panel holds the same values the staged colT would — just never all of
// them at once.
func packConvPanel(panel, sample []float32, inH, inW, icBase int, p ConvParams, outH, outW, kb, kc, p0, pw int) {
	khw := p.KernelH * p.KernelW
	for li := 0; li < kc; li++ {
		l := kb + li
		ic := l / khw
		rem := l - ic*khw
		ky := rem / p.KernelW
		kx := rem - ky*p.KernelW
		plane := sample[(icBase+ic)*inH*inW : (icBase+ic+1)*inH*inW]
		packPatchRow(panel[li*pw:li*pw+pw], plane, inH, inW, p, outH, outW, ky, kx, p0)
	}
}

// packPatchRow fills row with the input values kernel tap (ky, kx) sees at
// output pixels [p0, p0+len(row)) of one plane; out-of-image taps are zero.
// Each output row splits into three branch-free phases — left zero pad,
// in-image span (a copy for stride 1), right zero pad.
func packPatchRow(row, plane []float32, inH, inW int, p ConvParams, outH, outW, ky, kx, p0 int) {
	pw := len(row)
	idx := 0
	oy := p0 / outW
	ox := p0 - oy*outW
	for idx < pw {
		cnt := outW - ox
		if cnt > pw-idx {
			cnt = pw - idx
		}
		seg := row[idx : idx+cnt]
		iy := oy*p.StrideH - p.PadH + ky
		if iy < 0 || iy >= inH {
			for t := range seg {
				seg[t] = 0
			}
		} else {
			rowIn := plane[iy*inW : (iy+1)*inW]
			ix0 := ox*p.StrideW - p.PadW + kx
			// t in [0,cnt) reads ix0 + t*StrideW; clamp to the in-image
			// sub-span [t0, t1).
			t0 := 0
			if ix0 < 0 {
				t0 = (-ix0 + p.StrideW - 1) / p.StrideW
			}
			t1 := cnt
			if ix0+(cnt-1)*p.StrideW >= inW {
				t1 = (inW - ix0 + p.StrideW - 1) / p.StrideW
			}
			if t1 < t0 {
				t1 = t0
			}
			if t0 > cnt {
				t0 = cnt
			}
			if t1 > cnt {
				t1 = cnt
			}
			for t := 0; t < t0; t++ {
				seg[t] = 0
			}
			if t1 == t0 {
				// no in-image span
			} else if p.StrideW == 1 {
				copy(seg[t0:t1], rowIn[ix0+t0:])
			} else {
				ix := ix0 + t0*p.StrideW
				for t := t0; t < t1; t++ {
					seg[t] = rowIn[ix]
					ix += p.StrideW
				}
			}
			for t := t1; t < cnt; t++ {
				seg[t] = 0
			}
		}
		idx += cnt
		oy++
		ox = 0
	}
}

// qscaleBuf returns the per-image activation-scale buffer of the fused int8
// path (allocated once and reused).
func (s *Scratch) qscaleBuf(n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	if cap(s.qscales) < n {
		s.qscales = make([]float32, n)
	}
	return s.qscales[:n]
}

// panelBuf returns the fused-GEMM B panel buffer for the given worker slot
// (tensor.FusedPanelFloats floats, allocated once and reused).
func (s *Scratch) panelBuf(slot int) []float32 {
	if s == nil {
		return make([]float32, tensor.FusedPanelFloats)
	}
	for len(s.fpanels) <= slot {
		s.fpanels = append(s.fpanels, nil)
	}
	if s.fpanels[slot] == nil {
		s.fpanels[slot] = make([]float32, tensor.FusedPanelFloats)
	}
	return s.fpanels[slot]
}
