package tensor

import (
	"fmt"
	"testing"
)

// Fast-tier counterparts of BenchmarkGemmNN: same AlexNet conv2 batch-8
// geometry, on every rung the host can force, so the reference-vs-fast
// GMAC/s ratio reads directly off the bench output.

func BenchmarkGemmNNPacked(b *testing.B) {
	m, k, n := 128, 1200, 8*27*27
	r := NewRNG(3)
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bb)
	fillRand(r, bias)
	pa := PackA(a, m, k)
	dst := make([]float32, m*n)
	benchRungs(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GemmNNFast(dst, pa, bb, bias, n, n)
		}
		b.ReportMetric(float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	})
}

// BenchmarkGemmFusedPanels is the fused-staging counterpart of
// BenchmarkGemmNNPacked: the same product computed by walking FusedKC x
// FusedNC panels through GemmNNFastAccumPanel, with the panel fill (the
// fused analogue of patch packing) inside the timed region.  Comparing the
// two GMAC/s numbers shows the cost of panel staging relative to a staged
// B matrix.
func BenchmarkGemmFusedPanels(b *testing.B) {
	m, k, n := 128, 1200, 8*27*27
	r := NewRNG(3)
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bb)
	fillRand(r, bias)
	pa := PackA(a, m, k)
	dst := make([]float32, m*n)
	panel := make([]float32, FusedPanelFloats)
	benchRungs(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p0 := 0; p0 < n; p0 += FusedNC {
				nc := min(n-p0, FusedNC)
				for kb := 0; kb < k; kb += FusedKC {
					kc := min(k-kb, FusedKC)
					for l := 0; l < kc; l++ {
						copy(panel[l*nc:(l+1)*nc], bb[(kb+l)*n+p0:(kb+l)*n+p0+nc])
					}
					GemmNNFastAccumPanel(dst[p0:], pa, panel[:kc*nc], bias, kb, kc, nc, n)
				}
			}
		}
		b.ReportMetric(float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	})
}

func BenchmarkGemmInt8(b *testing.B) {
	m, k, n := 128, 1200, 8*27*27
	r := NewRNG(3)
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bb)
	fillRand(r, bias)
	pw := PackInt8(a, m, k)
	bp := make([]uint8, Int8PackedLen(pw.KPad(), n))
	acc := make([]int32, Int8AccLen(m, n))
	dst := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xScale := PackColsU8(bp, bb, k, n, n, pw.KPad())
		GemmInt8(dst, pw, bp, acc, bias, xScale, n, nil)
	}
	b.ReportMetric(float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

// benchRungs runs fn as one sub-benchmark per SIMD rung the host can force.
func benchRungs(b *testing.B, fn func(b *testing.B)) {
	forRungs(TierGeneric, func() { b.Run(FastTier().String(), fn) })
}

// BenchmarkGemmInt8Panel times the int8 panel GEMM alone — activations
// already packed, panel resident — on AlexNet's conv1-3 weight shapes at the
// fused path's two panel widths, so the kernel reads apart from the pack
// (BenchmarkGatherPanelU8) that BenchmarkGemmInt8 times together with it.
// Under -v it logs whether the AVX-512 rung, and on it the VNNI kernel, ran:
// CI runs it once so every rung's kernel executes on the runner.
func BenchmarkGemmInt8Panel(b *testing.B) {
	if DetectedTier() < TierAVX512 {
		b.Logf("AVX-512 rung not available, skipped (detected tier: %v)", DetectedTier())
	} else {
		b.Logf("AVX-512 rung exercised; VNNI kernel ran: %v", int8VNNI())
	}
	shapes := []struct {
		name string
		m, k int
	}{{"conv1_96x363", 96, 363}, {"conv2_128x1200", 128, 1200}, {"conv3_384x2304", 384, 2304}}
	for _, s := range shapes {
		for _, nc := range []int{FusedNC, 169} {
			b.Run(fmt.Sprintf("%s/nc%d", s.name, nc), func(b *testing.B) {
				r := NewRNG(3)
				a := make([]float32, s.m*s.k)
				bb := make([]float32, s.k*nc)
				bias := make([]float32, s.m)
				fillRand(r, a)
				fillRand(r, bb)
				fillRand(r, bias)
				pw := PackInt8(a, s.m, s.k)
				bp := make([]uint8, Int8PackedLen(pw.KPad(), nc))
				xScale := PackColsU8(bp, bb, s.k, nc, nc, pw.KPad())
				acc := make([]int32, Int8AccLen(s.m, nc))
				dst := make([]float32, s.m*nc)
				benchRungs(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						GemmInt8Panel(dst, pw, bp, acc, bias, xScale, nc, nc)
					}
					b.ReportMetric(float64(s.m)*float64(s.k)*float64(nc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
				})
			})
		}
	}
}

// BenchmarkGatherPanelU8 times the int8 convolution's panel staging alone:
// gathering one panel's bytes from quantized planes into the tile layout, on
// the depth orders and offset tables AlexNet's conv1-3 use (conv1: three
// planar 227-wide planes, 11x11 stride 4, the kernel width padded to 12;
// conv2: twelve channel quads of 31x31 padded pixels, 5x5; conv3: 64 quads of
// 15x15, 3x3) and a MobileNet depthwise group (one planar 112x112 channel,
// 3x3, the kernel width padded to 4), at the fused path's two panel widths.
func BenchmarkGatherPanelU8(b *testing.B) {
	shapes := []struct {
		name                          string
		lanes, c, kh, kw, kwPad, s, w int
		outW                          int
	}{
		{"conv1", 1, 3, 11, 11, 12, 4, 228, 55},
		{"conv2", 4, 48, 5, 5, 5, 1, 31, 27},
		{"conv3", 4, 256, 3, 3, 3, 1, 15, 13},
		{"depthwise", 1, 1, 3, 3, 4, 1, 115, 112},
	}
	for _, sh := range shapes {
		var rowOff []int32
		plane := sh.w * sh.w * sh.lanes
		for q := 0; q < sh.c/sh.lanes; q++ {
			for ky := 0; ky < sh.kh; ky++ {
				for kx := 0; kx < sh.kwPad; kx++ {
					for r := 0; r < sh.lanes; r++ {
						rowOff = append(rowOff, int32(q*plane+(ky*sh.w+kx)*sh.lanes+r))
					}
				}
			}
		}
		k := len(rowOff)
		kPad := (k + int8KPad - 1) &^ (int8KPad - 1)
		src := make([]uint8, sh.c/sh.lanes*plane)
		for i := range src {
			src[i] = uint8(i * 7)
		}
		for _, nc := range []int{FusedNC, 169} {
			if nc > sh.outW*sh.outW {
				continue
			}
			colOff := make([]int32, nc)
			for j := range colOff {
				colOff[j] = int32((j/sh.outW*sh.s*sh.w + j%sh.outW*sh.s) * sh.lanes)
			}
			b.Run(fmt.Sprintf("%s/nc%d", sh.name, nc), func(b *testing.B) {
				dst := make([]uint8, Int8PackedLen(kPad, nc))
				benchRungs(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						GatherPanelU8(dst, src, rowOff, colOff, k, nc, kPad)
					}
					b.ReportMetric(float64(k)*float64(nc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
				})
			})
		}
	}
}
