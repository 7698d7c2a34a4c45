package nn

import "tango/internal/tensor"

// This file implements the convolution core of every tier.  Receptive-field
// patches stream from the input into L2-resident column panels that a GEMM
// panel kernel consumes in place, and the product lands straight in the
// NCHW output block (dst rows outH*outW floats apart).  Nothing of size
// k x N*outH*outW is ever staged.  The layer's pack picks only how a panel
// is staged and multiplied:
//
//   - no pack (reference): a float panel and tensor.GemmNNAccumPanel, one
//     accumulator per element in (channel, ky, kx) order, bit-identical to
//     Conv2DDirect;
//   - float panels (fast): a float panel and tensor.GemmNNFastAccumPanel;
//   - int8 panels (int8): a byte panel and tensor.GemmInt8Panel.
//
// A 1x1, stride-1, unpadded convolution on a float tier stages nothing: the
// group's input planes are B as they lie, and one GEMM per image writes the
// output planes in place.
//
// Geometry and determinism: each (group, image) output block is covered by
// a fixed grid of tensor.FusedNC-column panels; a panel is finished by
// walking depth in tensor.FusedKC slabs (pack slab, accumulate slab).  The
// grid depends only on the layer shape — never on the worker count or the
// batch, since panels never straddle image boundaries — and panels cover
// disjoint output columns, so an image's bytes are the same for any worker
// fan-out and in any batch.  With fewer than two (image, panel) tasks per
// worker, the reference tier splits its weight rows across the workers
// instead, which leaves every element's arithmetic as it was.
//
// The int8 tier stages bytes, not floats.  The activation scale is per
// (group, image), from that image's group input planes, so it does not
// depend on the panel grid, the worker count or the batch.  Each image's
// group planes are quantized once into padded u8 planes (border bytes 128,
// the quantized zero), and every panel gathers its bytes straight into the
// GEMM's tile layout (tensor.GatherPanelU8).  The depth order (u8Order) makes
// every 4-deep block four adjacent plane bytes; PackConv permutes the weights
// to match.  Any order is exact: int32 sums do not depend on it, zero weights
// add nothing, and a weight row's scale and compensation ignore both.

// convFused runs the convolution over nImg contiguous CHW samples in `in`
// with weights w, writing NCHW output planes into o.  The pack selects the
// panel kernel: its int8 panels, its float panels, or, with no pack, the raw
// weights.
func (s *Scratch) convFused(o, in, w, biasData []float32, pk *Pack, p ConvParams, nImg, inH, inW, outH, outW int) {
	var pa []*tensor.PackedA
	var pq []*tensor.PackedInt8
	if pk != nil {
		pa, pq = pk.f, pk.q
	}
	sampleStride := p.InChannels * inH * inW
	groups := p.groups()
	inCPerGroup := p.InChannels / groups
	outCPerGroup := p.OutChannels / groups
	k := inCPerGroup * p.KernelH * p.KernelW
	n1 := outH * outW
	workers := s.Workers()
	oneByOne := pq == nil && p.KernelH == 1 && p.KernelW == 1 &&
		p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
	job := &s.conv
	*job = fusedJob{s: s, o: o, in: in, p: p, sampleStride: sampleStride, inH: inH, inW: inW,
		outH: outH, outW: outW, n1: n1, outSample: p.OutChannels * n1, m: outCPerGroup, k: k,
		nPanels: (n1 + tensor.FusedNC - 1) / tensor.FusedNC}
	job.tasks = nImg * job.nPanels
	job.fan = min(workers, job.tasks)
	if !s.team.Forks(int64(nImg) * int64(outCPerGroup) * int64(k) * int64(n1)) {
		job.fan = 1
	} else if pa == nil && pq == nil && job.tasks < 2*workers {
		// Too few panels to share out evenly (AlexNet conv2's two are 512 and
		// 217 columns wide): every worker runs every panel over its own
		// 4-row-aligned range of the weight rows instead.
		if job.fan = max(min(workers, outCPerGroup/4), 1); job.fan > 1 {
			job.rowChunk = (outCPerGroup + job.fan*4 - 1) / (job.fan * 4) * 4
			job.fan = (outCPerGroup + job.rowChunk - 1) / job.rowChunk
		}
	}
	if pq != nil {
		job.u8 = s.u8Planes(p, nImg, inH, inW, outH, outW)
	}

	for g := 0; g < groups; g++ {
		job.oc0 = g * outCPerGroup
		job.icBase = g * inCPerGroup
		job.w = w[job.oc0*k : (job.oc0+outCPerGroup)*k]
		job.gb = nil
		if biasData != nil {
			job.gb = biasData[job.oc0 : job.oc0+outCPerGroup]
		}
		if pa != nil {
			job.pa = pa[g]
		}
		if oneByOne {
			// The group's input planes ARE the B matrix (k rows of n1
			// contiguous floats): the GEMM streams them in place.
			for img := 0; img < nImg; img++ {
				dst := o[img*job.outSample+job.oc0*n1:]
				b := in[img*sampleStride+job.icBase*n1:]
				if job.pa != nil {
					tensor.GemmNNFastParallel(dst, job.pa, b, job.gb, n1, n1, &s.team)
				} else {
					tensor.GemmNNParallel(dst, job.w, b, job.gb, outCPerGroup, n1, k, n1, &s.team)
				}
			}
			continue
		}
		if pq != nil {
			job.pq = pq[g]
			job.scales = grown(&s.qscales, nImg)
			for img := 0; img < nImg; img++ {
				planes := in[img*sampleStride+job.icBase*inH*inW:][:inCPerGroup*inH*inW]
				job.scales[img] = tensor.U8Scale(tensor.MaxAbs(planes))
				job.u8.quantize(img, planes, 1/job.scales[img])
			}
		}
		// Grow every part's buffers before the fork: the slot lists must
		// not be resized by two parts at once.
		for wi := 0; wi < job.fan; wi++ {
			s.fusedBufs(wi, job)
		}
		s.team.Do(job.fan, job)
	}
}

// fusedJob is one group (m weight rows of depth k) of a convolution call,
// split into tasks: task t finishes the output columns of panel t%nPanels
// of image t/nPanels.  Exactly one of pq (int8), pa (fast) and neither
// (reference, on the raw weights w) selects the panel kernel.  It is the
// convolution's fork on the Scratch's team, in fan parts: part wi owns
// tasks wi, wi+fan, ... — or, with a non-zero rowChunk (the reference tier
// only), every task over its own chunk of the weight rows, packing each
// panel itself.  Either is a fixed assignment in which each output element
// is written by one part in its serial order, so the bytes are identical
// for any worker count.
type fusedJob struct {
	s            *Scratch
	o, in, w, gb []float32
	pa           *tensor.PackedA
	pq           *tensor.PackedInt8
	u8           u8Planes
	scales       []float32
	p            ConvParams

	sampleStride, inH, inW, icBase, outH, outW, n1, outSample, oc0, nPanels, m, k, rowChunk, tasks, fan int
}

// Run is part wi of the group, on worker slot wi's staging buffers.
func (j *fusedJob) Run(wi int) {
	panel, u8p, acc := j.s.fusedBufs(wi, j)
	t0, step, r0, r1 := wi, j.fan, 0, j.m
	if j.rowChunk > 0 {
		t0, step, r0 = 0, 1, min(wi*j.rowChunk, j.m)
		r1 = min(r0+j.rowChunk, j.m)
	}
	for t := t0; t < j.tasks; t += step {
		j.run(t, panel, u8p, acc, r0, r1)
	}
}

// fusedBufs returns worker slot wi's staging buffers: a float panel, or the
// int8 tier's u8 tile panel and int32 accumulators.
func (s *Scratch) fusedBufs(wi int, job *fusedJob) ([]float32, []uint8, []int32) {
	if nc := min(job.n1, tensor.FusedNC); job.pq != nil {
		return nil, slotBuf(&s.u8bufs, wi, tensor.Int8PackedLen(job.pq.KPad(), nc)),
			slotBuf(&s.accbs, wi, tensor.Int8AccLen(job.p.OutChannels/job.p.groups(), nc))
	}
	return slotBuf(&s.fpanels, wi, tensor.FusedPanelFloats), nil, nil
}

// run finishes task t with one worker's staging buffers, over weight rows
// [r0, r1) on the reference tier and every row on the others.  A float
// panel is finished one FusedKC depth slab at a time: pack the slab's patch
// block, then accumulate it onto the output block (bias-seeded at the first
// slab).
func (j *fusedJob) run(t int, panel []float32, u8p []uint8, acc []int32, r0, r1 int) {
	img, pi := t/j.nPanels, t%j.nPanels
	p0 := pi * tensor.FusedNC
	pw := min(j.n1-p0, tensor.FusedNC)
	dst := j.o[img*j.outSample+j.oc0*j.n1+p0:]
	if j.pq != nil {
		tensor.GatherPanelU8(u8p, j.u8.buf[img*j.u8.imageBytes:], j.u8.rowOff, j.u8.colOff[p0:p0+pw], j.pq.Cols(), pw, j.pq.KPad())
		tensor.GemmInt8Panel(dst, j.pq, u8p, acc, j.gb, j.scales[img], pw, j.n1)
		return
	}
	sample := j.in[img*j.sampleStride:]
	for kb := 0; kb < j.k; kb += tensor.FusedKC {
		kc := min(j.k-kb, tensor.FusedKC)
		packConvPanel(panel, sample, j.inH, j.inW, j.icBase, j.p, j.outH, j.outW, kb, kc, p0, pw)
		if j.pa != nil {
			tensor.GemmNNFastAccumPanel(dst, j.pa, panel[:kc*pw], j.gb, kb, kc, pw, j.n1)
		} else {
			tensor.GemmNNAccumPanel(dst, j.w, panel[:kc*pw], j.gb, j.k, kb, kc, pw, j.n1, r0, r1)
		}
	}
}

// u8Order returns the int8 depth order of a convolution: lanes is 4 when a
// group's channels split into quads (a pixel is a dword of four channels),
// else 1 (a plane per channel, the kernel width padded to kwPad, a multiple
// of four), so that every 4-deep block is four adjacent plane bytes.
func u8Order(p ConvParams) (lanes, kwPad int) {
	if (p.InChannels/p.groups())%4 == 0 {
		return 4, p.KernelW
	}
	return 1, (p.KernelW + 3) &^ 3
}

// u8Depth walks one group's int8 depth order (quad or channel, ky, kx,
// channel in quad), filling where non-nil from[l], depth row l's natural
// weight column (-1 for a padded kernel column), and rowOff[l], its tap's
// byte in the group's padded planes (wp pixels wide, planeBytes apart).
func u8Depth(p ConvParams, from, rowOff []int32, wp, planeBytes int) {
	lanes, kwPad := u8Order(p)
	l := 0
	for q := 0; q < p.InChannels/p.groups()/lanes; q++ {
		for ky := 0; ky < p.KernelH; ky++ {
			for kx := 0; kx < kwPad; kx++ {
				for r := 0; r < lanes; r, l = r+1, l+1 {
					if from != nil {
						from[l] = -1
						if kx < p.KernelW {
							from[l] = int32(((q*lanes+r)*p.KernelH+ky)*p.KernelW + kx)
						}
					}
					if rowOff != nil {
						rowOff[l] = int32(q*planeBytes + (ky*wp+kx)*lanes + r)
					}
				}
			}
		}
	}
}

// u8Planes is the int8 staging of one convolution call: per image, one
// group's input planes in padded u8 planes (rows of wp lanes-byte pixels),
// and the offset tables every panel gathers through: depth row l of output
// pixel j is byte rowOff[l] + colOff[j] of the image's planes.
type u8Planes struct {
	buf                                                 []uint8
	rowOff, colOff                                      []int32
	lanes, wp, inH, inW, origin, planeBytes, imageBytes int
}

// u8Planes sizes the staging for nImg images, fills the plane borders and
// builds the offset tables.  A plane is wide enough for every padded kernel
// column a panel reads (those taps meet zero weights).
func (s *Scratch) u8Planes(p ConvParams, nImg, inH, inW, outH, outW int) u8Planes {
	lanes, kwPad := u8Order(p)
	cg := p.InChannels / p.groups()
	u := u8Planes{lanes: lanes, inH: inH, inW: inW, wp: max(inW+2*p.PadW, (outW-1)*p.StrideW+kwPad)}
	u.origin = (p.PadH*u.wp + p.PadW) * lanes
	u.planeBytes = (inH + 2*p.PadH) * u.wp * lanes
	u.imageBytes = cg / lanes * u.planeBytes
	u.buf = grown(&s.planes, nImg*u.imageBytes)
	k := cg * p.KernelH * kwPad
	offs := grown(&s.offs, k+outH*outW)
	u.rowOff, u.colOff = offs[:k], offs[k:]
	u8Depth(p, nil, u.rowOff, u.wp, u.planeBytes)
	for j := range u.colOff {
		u.colOff[j] = int32((j/outW*p.StrideH*u.wp + j%outW*p.StrideW) * lanes)
	}
	for base := 0; base < len(u.buf); base += u.planeBytes {
		at := base
		for y := 0; y < inH; y++ {
			row := base + u.origin + y*u.wp*lanes
			fill128(u.buf[at:row])
			at = row + inW*lanes
		}
		fill128(u.buf[at : base+u.planeBytes])
	}
	return u
}

// quantize writes one image's group input planes (src, CHW) into the
// interiors of its u8 planes.
func (u *u8Planes) quantize(img int, src []float32, inv float32) {
	dst, hw := u.buf[img*u.imageBytes:], u.inH*u.inW
	for q := 0; q*u.lanes*hw < len(src); q++ {
		tensor.QuantizePlaneU8(dst[q*u.planeBytes+u.origin:], src[q*u.lanes*hw:],
			u.lanes, u.inH, u.inW, hw, u.wp*u.lanes, inv)
	}
}

// fill128 sets every byte of b to 128, the quantized zero.
func fill128(b []uint8) {
	for i := range b {
		b[i] = 128
	}
}

// packConvPanel streams the receptive-field patch block covering depth rows
// [kb, kb+kc) and output pixels [p0, p0+pw) of one sample into a compact
// kc x pw row-major panel.  Depth row l maps to kernel tap (ic, ky, kx) in
// the weights' own order, (channel, ky, kx) ascending, and padding
// positions are zero: the panel is a kc x pw block of the l-major im2col
// matrix, which is never materialized whole.
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
		cnt := min(outW-ox, pw-idx)
		seg := row[idx : idx+cnt]
		iy := oy*p.StrideH - p.PadH + ky
		if iy < 0 || iy >= inH {
			clear(seg)
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
			t1 = min(max(t1, t0), cnt)
			t0 = min(t0, cnt)
			clear(seg[:t0])
			if p.StrideW == 1 && t1 > t0 {
				copy(seg[t0:t1], rowIn[ix0+t0:])
			} else {
				ix := ix0 + t0*p.StrideW
				for t := t0; t < t1; t++ {
					seg[t] = rowIn[ix]
					ix += p.StrideW
				}
			}
			clear(seg[t1:])
		}
		idx += cnt
		oy++
		ox = 0
	}
}

// grown returns *buf resliced to n elements, reallocating only when it is
// too short (contents undefined).
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// slotBuf returns worker slot's staging buffer in *bufs (one slot per worker
// on the fused parallel path), grown to n elements as grown does.
func slotBuf[T any](bufs *[][]T, slot, n int) []T {
	for len(*bufs) <= slot {
		*bufs = append(*bufs, nil)
	}
	return grown(&(*bufs)[slot], n)
}
