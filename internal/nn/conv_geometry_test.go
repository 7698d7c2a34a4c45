package nn

import (
	"fmt"
	"math"
	"testing"

	"tango/internal/tensor"
)

// convGeom is one convolution geometry: parameters plus input plane size.
type convGeom struct {
	p        ConvParams
	inH, inW int
}

func (g convGeom) String() string {
	p := g.p
	return fmt.Sprintf("c%d-%d_g%d_k%dx%d_s%dx%d_p%dx%d_in%dx%d", p.InChannels, p.OutChannels, p.groups(),
		p.KernelH, p.KernelW, p.StrideH, p.StrideW, p.PadH, p.PadW, g.inH, g.inW)
}

// convGeometryTable lists the geometries the staged core must get right that
// the seven networks never produce: every case routes differently through
// the staging (in-place 1x1, padded, strided), the group split, or the
// GemmNN tiling (output planes n with n%8 in {0, 1, 7}, n < 8, n past the
// 512-column panel; outCPerGroup m with m%4 != 0; depth past the 256 panel).
func convGeometryTable() []convGeom {
	cp := func(inC, outC, groups, kh, kw, sh, sw, ph, pw int) ConvParams {
		return ConvParams{InChannels: inC, OutChannels: outC, Groups: groups,
			KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw, PadH: ph, PadW: pw}
	}
	return []convGeom{
		{cp(6, 10, 1, 1, 1, 1, 1, 0, 0), 8, 8},    // 1x1 in place, n=64
		{cp(6, 6, 2, 1, 1, 1, 1, 0, 0), 5, 5},     // 1x1 in place per group, m=3, n=25
		{cp(10, 20, 1, 1, 1, 1, 1, 0, 0), 23, 23}, // 1x1 in place across the column panel, n=529
		{cp(300, 5, 1, 1, 1, 1, 1, 0, 0), 1, 7},   // 1x1 in place across the depth panel, n=7
		{cp(4, 5, 1, 1, 1, 2, 2, 0, 0), 9, 9},     // 1x1 stride 2 is staged, n=25
		{cp(3, 4, 1, 1, 1, 1, 2, 0, 0), 5, 9},     // 1x1 strided on one axis only is staged
		{cp(3, 4, 1, 1, 1, 2, 1, 0, 0), 9, 5},     // and on the other
		{cp(3, 4, 1, 1, 1, 1, 1, 0, 1), 5, 5},     // 1x1 padded on one axis only is staged
		{cp(3, 4, 1, 1, 1, 1, 1, 1, 0), 5, 5},     // and on the other
		{cp(3, 4, 1, 1, 3, 1, 1, 0, 0), 5, 7},     // 1x3 and 3x1 kernels are staged
		{cp(3, 4, 1, 3, 1, 1, 1, 0, 0), 7, 5},
		{cp(5, 5, 5, 3, 3, 1, 1, 1, 1), 7, 9},     // depthwise m=1, n=63
		{cp(3, 3, 3, 3, 3, 1, 1, 1, 1), 23, 24},   // depthwise across the column panel, n=552
		{cp(4, 12, 4, 3, 3, 2, 2, 2, 2), 6, 7},    // m=3 per group, pad wider than one stride
		{cp(3, 7, 1, 3, 3, 2, 2, 0, 0), 7, 7},     // n=9
		{cp(2, 3, 1, 3, 3, 1, 1, 0, 0), 4, 4},     // n=4, narrower than one vector
		{cp(3, 5, 1, 3, 3, 1, 1, 0, 0), 3, 10},    // one output row, n=8
		{cp(3, 67, 1, 3, 3, 1, 1, 1, 1), 4, 5},    // sixteen row tiles plus three remainder rows
		{cp(32, 6, 1, 3, 3, 1, 1, 1, 1), 23, 23},  // k=288 and n=529 cross both GEMM panels
		{cp(128, 2, 1, 3, 3, 1, 1, 0, 0), 4, 6},   // k=1152, remainder rows only
		{cp(4, 8, 2, 5, 5, 1, 1, 2, 2), 8, 8},     // n=64
		{cp(2, 6, 2, 5, 5, 3, 3, 1, 1), 12, 14},   // m=3, stride 3, n=16
		{cp(2, 7, 1, 5, 5, 4, 4, 1, 1), 20, 23},   // stride 4, m=7, n=25
		{cp(3, 9, 1, 11, 11, 4, 4, 2, 2), 19, 23}, // AlexNet conv1 kernel, n=20
		{cp(1, 2, 1, 11, 11, 2, 2, 1, 1), 11, 13}, // n=6
		{cp(2, 8, 1, 11, 11, 1, 1, 2, 2), 9, 8},   // kernel larger than the input, legal through padding
		{cp(3, 5, 1, 3, 5, 2, 1, 0, 2), 9, 6},     // rectangular kernel; stride and pad differ per axis
		{cp(2, 4, 1, 5, 5, 4, 4, 0, 0), 5, 5},     // one output pixel
		{cp(2, 2, 1, 3, 3, 4, 4, 2, 2), 3, 3},     // stride past the input
		{cp(6, 16, 2, 5, 5, 1, 1, 2, 2), 27, 27},  // AlexNet conv2 plane, n=729
		{cp(8, 10, 1, 5, 5, 1, 1, 2, 2), 13, 13},  // channels a multiple of four, 5x5 padded
		{cp(12, 8, 1, 3, 3, 2, 2, 1, 1), 11, 12},  // twelve channels, stride 2
		{cp(4, 8, 1, 1, 1, 1, 1, 0, 0), 27, 27},   // four-channel 1x1 across the column panel, n=729
		{cp(16, 18, 2, 3, 3, 1, 1, 1, 1), 9, 9},   // eight channels per group
		{cp(3, 5, 1, 3, 3, 1, 1, 1, 1), 16, 32},   // n=512 exactly one column panel
		{cp(3, 5, 1, 3, 3, 1, 1, 1, 1), 19, 27},   // n=513, a one-column last panel
		{cp(64, 3, 1, 2, 2, 1, 1, 0, 0), 6, 7},    // k=256 exactly one depth slab
		{cp(257, 3, 1, 1, 1, 1, 1, 0, 1), 3, 4},   // k=257, a one-row last slab (1x1 padded is staged)
		{cp(6, 9, 3, 1, 1, 1, 1, 0, 0), 19, 27},   // 1x1 in place per group at n=513, batched below
		{cp(8, 14, 1, 3, 3, 1, 1, 1, 1), 10, 10},  // one panel, m=14: three workers split the rows
	}
}

// randomConvGeom draws one geometry: kernel from the sizes the issue names,
// stride 1-4, pad 0-2, and a group structure of one, two or depthwise groups
// with 1-5 output channels each.
func randomConvGeom(r *tensor.RNG) convGeom {
	pick := func(n int) int { return int(r.Uint64() % uint64(n)) }
	kernels := []int{1, 3, 5, 11}
	kh := kernels[pick(len(kernels))]
	kw := kh
	if pick(4) == 0 {
		kw = kernels[pick(len(kernels))]
	}
	p := ConvParams{KernelH: kh, KernelW: kw,
		StrideH: 1 + pick(4), StrideW: 1 + pick(4), PadH: pick(3), PadW: pick(3)}
	inCPerGroup, outCPerGroup := 1+pick(4), 1+pick(5)
	switch pick(3) {
	case 0:
		p.Groups = 1
	case 1:
		p.Groups = 2
	default: // depthwise: one input plane per group
		p.Groups = 2 + pick(4)
		inCPerGroup = 1
	}
	p.InChannels = p.Groups * inCPerGroup
	p.OutChannels = p.Groups * outCPerGroup
	g := convGeom{p: p, inH: kh + pick(14), inW: kw + pick(14)}
	if kh == 1 && pick(2) == 0 { // steer half the 1x1 draws onto the in-place route
		g.p.StrideH, g.p.StrideW, g.p.PadH, g.p.PadW = 1, 1, 0, 0
	}
	return g
}

// TestConvCoreGeometryMatchesDirect is the differential test of the staged
// convolution core: for every table geometry and a seeded random draw, batch
// sizes 1 and 3 and one CHW sample, worker counts 1 and 3, and on both
// GemmNN rungs, each image's output must equal Conv2DDirect bit for bit.
func TestConvCoreGeometryMatchesDirect(t *testing.T) {
	geoms := convGeometryTable()
	r := tensor.NewRNG(15)
	for i := 0; i < 60; i++ {
		geoms = append(geoms, randomConvGeom(r))
	}
	for _, rung := range []string{"detected", "portable"} {
		t.Run(rung, func(t *testing.T) {
			if rung == "portable" {
				portableRung(t)
			}
			data := tensor.NewRNG(16)
			for _, g := range geoms {
				testConvGeom(t, data, g)
			}
		})
	}
}

func testConvGeom(t *testing.T, r *tensor.RNG, g convGeom) {
	t.Helper()
	p := g.p
	if err := p.Validate(); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	w := randBatch(r, p.WeightCount())
	b := randBatch(r, p.OutChannels)
	if r.Uint64()%4 == 0 {
		b = nil
	}
	const maxN = 3
	in := randBatch(r, maxN, p.InChannels, g.inH, g.inW)
	want := make([]*tensor.Tensor, maxN)
	for i := range want {
		var err error
		if want[i], err = Conv2DDirect(sampleOf(t, in, i), w, b, p); err != nil {
			t.Fatalf("%v: direct: %v", g, err)
		}
	}
	sample := in.Len() / maxN
	for _, workers := range []int{1, 3} {
		s := NewScratch()
		s.SetWorkers(workers)
		for _, n := range []int{1, maxN} {
			op := fmt.Sprintf("%v/n%d/w%d", g, n, workers)
			batch, err := tensor.FromSlice(in.Data()[:n*sample], n, p.InChannels, g.inH, g.inW)
			if err != nil {
				t.Fatal(err)
			}
			s.BeginRun()
			out, err := s.Conv2DPacked(batch, w, b, p, nil)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			for i := 0; i < n; i++ {
				requireSameBits(t, op, out, i, want[i])
			}
		}
		s.BeginRun()
		single, err := s.Conv2DPacked(sampleOf(t, in, 0), w, b, p, nil)
		if err != nil {
			t.Fatalf("%v/single/w%d: %v", g, workers, err)
		}
		if !tensor.SameShape(single, want[0]) {
			t.Fatalf("%v/single/w%d: shape %v, want %v", g, workers, single.Shape(), want[0].Shape())
		}
		one, err := tensor.FromSlice(single.Data(), 1, single.Len())
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("%v/single/w%d", g, workers), one, 0, want[0])
	}
}

// TestConvPackedSingleMatchesBatchOfOne pins the one convolution core: with
// every pack, Conv2DPacked of an image and of the one-image batch are the
// same call, so their outputs are bit-identical for any worker count — and,
// the panel grid and the int8 activation scale being per (group, image), so
// is that image's slice of a larger batch.  A private single-sample lowering
// with its own blocking or scale fails here.
func TestConvPackedSingleMatchesBatchOfOne(t *testing.T) {
	geoms := convGeometryTable()
	r := tensor.NewRNG(21)
	for i := 0; i < 20; i++ {
		geoms = append(geoms, randomConvGeom(r))
	}
	for _, g := range geoms {
		p := g.p
		w, b := randBatch(r, p.WeightCount()), randBatch(r, p.OutChannels)
		pair := randBatch(r, 2, p.InChannels, g.inH, g.inW)
		one, err := tensor.FromSlice(pair.Data()[:pair.Len()/2], 1, p.InChannels, g.inH, g.inW)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Numerics{NumericsReference, NumericsFast, NumericsInt8} {
			pk := PackConv(w, p, mode)
			for _, workers := range []int{1, 3} {
				op := fmt.Sprintf("%v/%v/w%d", g, mode, workers)
				s := NewScratch()
				s.SetWorkers(workers)
				single, err := s.Conv2DPacked(sampleOf(t, pair, 0), w, b, p, pk)
				if err != nil {
					t.Fatalf("%s: single: %v", op, err)
				}
				for _, in := range []*tensor.Tensor{one, pair} {
					batch, err := s.Conv2DPacked(in, w, b, p, pk)
					if err != nil {
						t.Fatalf("%s: batch of %d: %v", op, in.Dim(0), err)
					}
					requireSameBits(t, fmt.Sprintf("%s/n%d", op, in.Dim(0)), batch, 0, single)
				}
			}
		}
	}
}

// TestScratchBytesCountsConvStaging pins the resident-bytes accounting of the
// one conv core's buffers.  Every pack streams panels: with no pack the core
// stages exactly the float panels it stages with float panels for the same
// call and nothing else, for a sample and for a batch; an in-place 1x1
// stages nothing with either at N = 1 and N = 3; and int8 panels stage no
// float panel, only u8 planes and offset tables beside their tile panels,
// accumulators and scales, all counted by Bytes().
func TestScratchBytesCountsConvStaging(t *testing.T) {
	r := tensor.NewRNG(3)
	const h, w = 5, 7
	p1 := ConvParams{InChannels: 4, OutChannels: 6, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	w1 := randBatch(r, p1.WeightCount())
	for _, mode := range []Numerics{NumericsReference, NumericsFast} {
		s := NewScratch()
		for _, in := range []*tensor.Tensor{randBatch(r, 4, h, w), randBatch(r, 3, 4, h, w)} {
			if _, err := s.Conv2DPacked(in, w1, nil, p1, PackConv(w1, p1, mode)); err != nil {
				t.Fatal(err)
			}
			if got := s.Bytes() - s.ArenaBytes(); got != 0 {
				t.Fatalf("%v: in-place 1x1 of shape %v: %d staging bytes, want 0", mode, in.Shape(), got)
			}
		}
	}

	// The int8 tier stages bytes: no float panel at all, one set of padded u8
	// planes per image (planes bytes each) and one pair of offset tables (offs
	// int32s: padded depth plus output pixels).
	p := ConvParams{InChannels: 4, OutChannels: 6, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	for _, c := range []struct {
		g            convGeom
		planes, offs int
	}{
		// Two channels a group: planar, kernel width padded to 4, planes 7 x
		// max(7+2, 6+4) = 7 x 10, depth 2*3*4 = 24, 35 pixels.
		{convGeom{p, h, w}, 2 * 7 * 10, 24 + 35},
		// Three channels: planar, 11 -> 12, planes 39 x max(39+4, 8*4+12),
		// depth 3*11*12 = 396, 8 x 9 pixels.
		{convGeom{ConvParams{InChannels: 3, OutChannels: 8, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4, PadH: 2, PadW: 2}, 35, 39},
			3 * 39 * 44, 396 + 72},
		// Four channels: one channel quad, planes 7 x 9 pixels of 4 bytes,
		// depth 4*3*3 = 36, 35 pixels.
		{convGeom{ConvParams{InChannels: 4, OutChannels: 6, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h, w},
			4 * 7 * 9, 36 + 35},
		// Two column panels (n = 529), each staged in the one worker's panel.
		{convGeom{ConvParams{InChannels: 32, OutChannels: 6, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 23, 23},
			8 * 25 * 25 * 4, 288 + 529},
	} {
		g := c.g
		weights, bias := randBatch(r, g.p.WeightCount()), randBatch(r, g.p.OutChannels)
		for _, in := range []*tensor.Tensor{
			randBatch(r, g.p.InChannels, g.inH, g.inW), randBatch(r, 2, g.p.InChannels, g.inH, g.inW),
		} {
			nImg := samples(in)
			run := func(mode Numerics) *Scratch {
				t.Helper()
				s := NewScratch()
				if _, err := s.Conv2DPacked(in, weights, bias, g.p, PackConv(weights, g.p, mode)); err != nil {
					t.Fatalf("%v/%v/n%d: %v", g, mode, nImg, err)
				}
				return s
			}
			fast := run(NumericsFast)
			panels := int64(len(fast.fpanels)) * tensor.FusedPanelFloats * 4
			if len(fast.fpanels) == 0 || fast.Bytes()-fast.ArenaBytes() != panels {
				t.Fatalf("%v/n%d: fast tier stages %d bytes in %d panels, want the panels alone",
					g, nImg, fast.Bytes()-fast.ArenaBytes(), len(fast.fpanels))
			}
			if ref := run(NumericsReference); len(ref.fpanels) != len(fast.fpanels) || ref.Bytes()-ref.ArenaBytes() != panels {
				t.Fatalf("%v/n%d: reference stages %d bytes in %d panels, want the fast tier's %d in %d",
					g, nImg, ref.Bytes()-ref.ArenaBytes(), len(ref.fpanels), panels, len(fast.fpanels))
			}
			s := run(NumericsInt8)
			if len(s.fpanels) != 0 {
				t.Fatalf("%v/n%d: int8 allocated %d float panels", g, nImg, len(s.fpanels))
			}
			if cap(s.planes) != nImg*c.planes || cap(s.offs) != c.offs {
				t.Fatalf("%v/n%d: %d plane bytes and %d offsets, want %d and %d",
					g, nImg, cap(s.planes), cap(s.offs), nImg*c.planes, c.offs)
			}
			other := int64(cap(s.qscales)) * 4
			for _, b := range s.u8bufs {
				other += int64(cap(b))
			}
			for _, b := range s.accbs {
				other += int64(cap(b)) * 4
			}
			if got := s.Bytes() - s.ArenaBytes() - other; got != int64(cap(s.planes)+4*cap(s.offs)) {
				t.Fatalf("%v/n%d: Bytes() counts %d bytes beside the panel, accumulator and scale buffers, want planes %d + offsets %d",
					g, nImg, got, cap(s.planes), 4*cap(s.offs))
			}
		}
	}
}

// convFastPanelOracle is the fast-tier convolution of nImg CHW images written
// as the panel walk itself: per image and group, every FusedNC column panel
// finishes its FusedKC depth slabs through packConvPanel and
// tensor.GemmNNFastAccumPanel, from a FusedPanelFloats buffer as the engine
// provides; an in-place 1x1 is one tensor.GemmNNFast over the input planes.
func convFastPanelOracle(in, bias []float32, pk *Pack, p ConvParams, nImg, inH, inW int) []float32 {
	outH, outW := p.OutputDims(inH, inW)
	n1 := outH * outW
	groups := p.groups()
	cg, og := p.InChannels/groups, p.OutChannels/groups
	out := make([]float32, nImg*p.OutChannels*n1)
	panel := make([]float32, tensor.FusedPanelFloats)
	inPlace := p.KernelH == 1 && p.KernelW == 1 && p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
	for img := 0; img < nImg; img++ {
		sample := in[img*p.InChannels*inH*inW:]
		for g := 0; g < groups; g++ {
			pa := pk.f[g]
			var gb []float32
			if bias != nil {
				gb = bias[g*og : (g+1)*og]
			}
			dst := out[(img*p.OutChannels+g*og)*n1:]
			if inPlace {
				tensor.GemmNNFast(dst, pa, sample[g*cg*n1:], gb, n1, n1)
				continue
			}
			for p0 := 0; p0 < n1; p0 += tensor.FusedNC {
				pw := min(n1-p0, tensor.FusedNC)
				for kb := 0; kb < pa.Cols(); kb += tensor.FusedKC {
					kc := min(pa.Cols()-kb, tensor.FusedKC)
					packConvPanel(panel, sample, inH, inW, g*cg, p, outH, outW, kb, kc, p0, pw)
					tensor.GemmNNFastAccumPanel(dst[p0:], pa, panel[:kc*pw], gb, kb, kc, pw, n1)
				}
			}
		}
	}
	return out
}

// TestConvFastMatchesPanelOracle holds the fast tier's kernel choice: on every
// SIMD rung, for every table geometry and a seeded random draw, batches of 1
// and 2 and worker counts 1 and 3, a fast-tier Conv2DPacked must equal
// convFastPanelOracle bit for bit.  On the FMA and AVX-512 rungs a fast tier
// that ran the reference panel kernel (or any other blocking) fails here; on
// the generic rung the fast scalar kernel keeps the reference order, so
// there the two kernels cannot be told apart.
func TestConvFastMatchesPanelOracle(t *testing.T) {
	geoms := convGeometryTable()
	r := tensor.NewRNG(41)
	for i := 0; i < 30; i++ {
		geoms = append(geoms, randomConvGeom(r))
	}
	const maxN = 2
	for _, g := range geoms {
		p := g.p
		w := randBatch(r, p.WeightCount())
		var bd []float32
		var b *tensor.Tensor
		if r.Uint64()%4 != 0 {
			b = randBatch(r, p.OutChannels)
			bd = b.Data()
		}
		in := randBatch(r, maxN, p.InChannels, g.inH, g.inW)
		pk := PackConv(w, p, NumericsFast)
		forFastTiers(func(tier tensor.SIMDTier) {
			want := convFastPanelOracle(in.Data(), bd, pk, p, maxN, g.inH, g.inW)
			for _, workers := range []int{1, 3} {
				s := NewScratch()
				s.SetWorkers(workers)
				for _, n := range []int{1, maxN} {
					batch, err := tensor.FromSlice(in.Data()[:n*in.Len()/maxN], n, p.InChannels, g.inH, g.inW)
					if err != nil {
						t.Fatal(err)
					}
					s.BeginRun()
					out, err := s.Conv2DPacked(batch, w, b, p, pk)
					if err != nil {
						t.Fatalf("%v/%v/n%d/w%d: %v", g, tier, n, workers, err)
					}
					for i, v := range out.Data() {
						if math.Float32bits(v) != math.Float32bits(want[i]) {
							t.Fatalf("%v/%v/n%d/w%d: element %d = %x, panel oracle %x",
								g, tier, n, workers, i, math.Float32bits(v), math.Float32bits(want[i]))
						}
					}
				}
			}
		})
	}
}

// roundHalfAway32 is the int8 tier's one rounding, written out: add 0.5
// carrying x's sign in float32, truncate.
func roundHalfAway32(x float32) int32 {
	return int32(x + float32(math.Copysign(0.5, float64(x))))
}

// convInt8Oracle is the int8 convolution of one CHW image, written without
// any staging layout: weights quantize per output row (maxAbs/63, clamp
// ±63), activations per group of this image (maxAbs/127), the int32 sum runs
// over (ic, ky, kx) in natural order with padding taps contributing nothing,
// and the result dequantizes as float32(float32(s)*f) + b.
func convInt8Oracle(in, w, b []float32, p ConvParams, inH, inW int) []float32 {
	groups := p.groups()
	cg, og := p.InChannels/groups, p.OutChannels/groups
	k := cg * p.KernelH * p.KernelW
	outH, outW := p.OutputDims(inH, inW)
	out := make([]float32, p.OutChannels*outH*outW)
	maxAbs := func(v []float32) float32 {
		var m float32
		for _, x := range v {
			if x < 0 {
				x = -x
			}
			if x > m {
				m = x
			}
		}
		return m
	}
	wq := make([]int32, k)
	for g := 0; g < groups; g++ {
		planes := in[g*cg*inH*inW : (g+1)*cg*inH*inW]
		xs := maxAbs(planes) / 127
		if xs == 0 {
			xs = 1
		}
		xinv := 1 / xs
		xq := make([]int32, len(planes))
		for i, v := range planes {
			xq[i] = roundHalfAway32(float32(v * xinv))
		}
		for oc := g * og; oc < (g+1)*og; oc++ {
			row := w[oc*k : (oc+1)*k]
			ws := maxAbs(row) / 63
			if ws == 0 {
				ws = 1
			}
			winv := 1 / ws
			for l, v := range row {
				wq[l] = min(max(roundHalfAway32(float32(v*winv)), -63), 63)
			}
			f := ws * xs
			var b0 float32
			if b != nil {
				b0 = b[oc]
			}
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var s int32
					for ic := 0; ic < cg; ic++ {
						for ky := 0; ky < p.KernelH; ky++ {
							iy := oy*p.StrideH - p.PadH + ky
							for kx := 0; kx < p.KernelW; kx++ {
								ix := ox*p.StrideW - p.PadW + kx
								if iy < 0 || iy >= inH || ix < 0 || ix >= inW {
									continue
								}
								s += wq[(ic*p.KernelH+ky)*p.KernelW+kx] * xq[(ic*inH+iy)*inW+ix]
							}
						}
					}
					out[(oc*outH+oy)*outW+ox] = float32(float32(s)*f) + b0
				}
			}
		}
	}
	return out
}

// TestConvInt8MatchesScalarOracle pins the int8 convolution layer by layer,
// which the networks' int8 digests (final outputs only) cannot: for every
// table geometry and a seeded random draw, batches of 1 and 3 and worker
// counts 1 and 3, on every SIMD rung, each image of a Conv2DPacked batch and
// of a single-image Conv2DPacked must equal convInt8Oracle bit for bit.  Whatever
// depth order, staging layout or panel grid the int8 tier uses, the integer
// sums it dequantizes are the oracle's.
func TestConvInt8MatchesScalarOracle(t *testing.T) {
	geoms := convGeometryTable()
	r := tensor.NewRNG(33)
	for i := 0; i < 60; i++ {
		geoms = append(geoms, randomConvGeom(r))
	}
	const maxN = 3
	for _, g := range geoms {
		p := g.p
		w := randBatch(r, p.WeightCount())
		var b *tensor.Tensor
		if r.Uint64()%4 != 0 {
			b = randBatch(r, p.OutChannels)
		}
		in := randBatch(r, maxN, p.InChannels, g.inH, g.inW)
		in.Data()[r.Uint64()%uint64(in.Len())] = 0
		var bd []float32
		if b != nil {
			bd = b.Data()
		}
		sample := in.Len() / maxN
		want := make([]*tensor.Tensor, maxN)
		for i := range want {
			o := convInt8Oracle(in.Data()[i*sample:(i+1)*sample], w.Data(), bd, p, g.inH, g.inW)
			var err error
			if want[i], err = tensor.FromSlice(o, len(o)); err != nil {
				t.Fatal(err)
			}
		}
		forFastTiers(func(tier tensor.SIMDTier) {
			pk := PackConv(w, p, NumericsInt8)
			for _, workers := range []int{1, 3} {
				s := NewScratch()
				s.SetWorkers(workers)
				for _, n := range []int{1, maxN} {
					op := fmt.Sprintf("%v/%v/n%d/w%d", g, tier, n, workers)
					batch, err := tensor.FromSlice(in.Data()[:n*sample], n, p.InChannels, g.inH, g.inW)
					if err != nil {
						t.Fatal(err)
					}
					s.BeginRun()
					out, err := s.Conv2DPacked(batch, w, b, p, pk)
					if err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					for i := 0; i < n; i++ {
						requireSameBits(t, op, out, i, want[i])
					}
				}
				s.BeginRun()
				single, err := s.Conv2DPacked(sampleOf(t, in, maxN-1), w, b, p, pk)
				if err != nil {
					t.Fatalf("%v/%v/single/w%d: %v", g, tier, workers, err)
				}
				one, err := tensor.FromSlice(single.Data(), 1, single.Len())
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, fmt.Sprintf("%v/%v/single/w%d", g, tier, workers), one, 0, want[maxN-1])
			}
		})
	}
}
