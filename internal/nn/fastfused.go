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
// floats apart via the two-stride kernels).
//
// Geometry and determinism: each (group, image) output block is covered by
// a fixed grid of tensor.FusedNC-column panels; a panel is finished by
// walking depth in tensor.FusedKC slabs (pack slab, accumulate slab).  The
// grid depends only on the layer shape — never on the worker count or the
// batch, since panels never straddle image boundaries — and panels cover
// disjoint output columns, so an image's bytes are the same for any worker
// fan-out and in any batch.
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

// convFused runs the fused fast-tier convolution over nImg contiguous CHW
// samples in `in`, writing NCHW output planes into o.  pk must carry the
// pack matching int8Path.
func (s *Scratch) convFused(o, in, biasData []float32, pk *ConvPack, p ConvParams, nImg, inH, inW, outH, outW int, int8Path bool) {
	sampleStride := p.InChannels * inH * inW
	groups := p.groups()
	inCPerGroup := p.InChannels / groups
	outCPerGroup := p.OutChannels / groups
	n1 := outH * outW
	workers := s.Workers()
	oneByOne := !int8Path && p.KernelH == 1 && p.KernelW == 1 &&
		p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
	job := fusedJob{o: o, in: in, p: p, sampleStride: sampleStride, inH: inH, inW: inW,
		outH: outH, outW: outW, n1: n1, outSample: p.OutChannels * n1,
		nPanels: (n1 + tensor.FusedNC - 1) / tensor.FusedNC}
	tasks := nImg * job.nPanels
	if int8Path {
		job.u8 = s.u8Planes(p, nImg, inH, inW, outH, outW)
	}

	for g := 0; g < groups; g++ {
		job.oc0 = g * outCPerGroup
		job.icBase = g * inCPerGroup
		job.gb = nil
		if biasData != nil {
			job.gb = biasData[job.oc0 : job.oc0+outCPerGroup]
		}
		if oneByOne {
			// 1x1/stride-1: the group's input planes ARE the B matrix
			// (k rows of n1 contiguous floats) — no patch extraction, no
			// panel packing, the GEMM streams the input in place.
			pa := pk.f[g]
			for img := 0; img < nImg; img++ {
				tensor.GemmNNFastStridedParallel(
					o[img*job.outSample+job.oc0*n1:], pa,
					in[img*sampleStride+job.icBase*n1:], job.gb, n1, n1, n1, workers)
			}
			continue
		}
		if int8Path {
			job.pq = pk.q[g]
			job.scales = grown(&s.qscales, nImg)
			for img := 0; img < nImg; img++ {
				planes := in[img*sampleStride+job.icBase*inH*inW:][:inCPerGroup*inH*inW]
				job.scales[img] = tensor.U8Scale(tensor.MaxAbs(planes))
				job.u8.quantize(img, planes, 1/job.scales[img])
			}
		} else {
			job.pa = pk.f[g]
		}
		w := min(workers, tasks)
		if w <= 1 {
			// Serial path: no closures (they would escape and break the
			// engine's zero-alloc steady state).
			panel, u8p, acc := s.fusedBufs(0, &job)
			for t := 0; t < tasks; t++ {
				job.run(t, panel, u8p, acc)
			}
			continue
		}
		s.convFusedGroupPar(job, tasks, w)
	}
}

// fusedJob is one group of a fused convolution call, split into tasks: task
// t finishes the output columns of panel t%nPanels of image t/nPanels.
type fusedJob struct {
	o, in, gb []float32
	pa        *tensor.PackedA
	pq        *tensor.PackedInt8
	u8        u8Planes
	scales    []float32
	p         ConvParams

	sampleStride, inH, inW, icBase, outH, outW, n1, outSample, oc0, nPanels int
}

// fusedBufs returns worker slot wi's staging buffers: a float panel, or the
// int8 tier's u8 tile panel and int32 accumulators.
func (s *Scratch) fusedBufs(wi int, job *fusedJob) ([]float32, []uint8, []int32) {
	if nc := min(job.n1, tensor.FusedNC); job.pq != nil {
		return nil, s.u8buf(wi, tensor.Int8PackedLen(job.pq.KPad(), nc)),
			s.accbuf(wi, tensor.Int8AccLen(job.p.OutChannels/job.p.groups(), nc))
	}
	return s.panelBuf(wi), nil, nil
}

// run finishes task t with one worker's staging buffers.
func (j *fusedJob) run(t int, panel []float32, u8p []uint8, acc []int32) {
	img, pi := t/j.nPanels, t%j.nPanels
	p0 := pi * tensor.FusedNC
	pw := min(j.n1-p0, tensor.FusedNC)
	dst := j.o[img*j.outSample+j.oc0*j.n1+p0:]
	if j.pq != nil {
		tensor.GatherPanelU8(u8p, j.u8.buf[img*j.u8.imageBytes:], j.u8.rowOff, j.u8.colOff[p0:p0+pw], j.pq.Cols(), pw, j.pq.KPad())
		tensor.GemmInt8Panel(dst, j.pq, u8p, acc, j.gb, j.scales[img], pw, j.n1)
		return
	}
	fusedConvPanel(dst, j.in[img*j.sampleStride:], j.pa, j.gb, j.p, j.inH, j.inW, j.icBase,
		j.outH, j.outW, j.n1, p0, pw, panel)
}

// convFusedGroupPar fans one group's tasks over the worker pool.  It takes
// the job by value and lives in its own function so the closure below never
// forces the serial path's locals to the heap (convFused must stay
// closure-free for the zero-alloc steady state).  Worker wi owns tasks wi,
// wi+w, ... — a fixed assignment over the fixed panel grid, so the bytes
// written are identical for any worker count.
func (s *Scratch) convFusedGroupPar(job fusedJob, tasks, w int) {
	// Pre-grow the per-worker buffers before fanning out: the slot helpers
	// may append/resize, which must not race.
	for wi := 0; wi < w; wi++ {
		s.fusedBufs(wi, &job)
	}
	_ = par.ForEach(w, w, func(wi int) error {
		panel, u8p, acc := s.fusedBufs(wi, &job)
		for t := wi; t < tasks; t += w {
			job.run(t, panel, u8p, acc)
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

// grown returns *buf resliced to n elements, reallocating only when it is
// too short (contents undefined).
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// panelBuf returns the fused-GEMM B panel buffer for the given worker slot
// (tensor.FusedPanelFloats floats, allocated once and reused).
func (s *Scratch) panelBuf(slot int) []float32 {
	for len(s.fpanels) <= slot {
		s.fpanels = append(s.fpanels, nil)
	}
	if s.fpanels[slot] == nil {
		s.fpanels[slot] = make([]float32, tensor.FusedPanelFloats)
	}
	return s.fpanels[slot]
}
