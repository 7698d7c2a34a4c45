package tensor

import (
	"math"
	"testing"
)

// refGemmNN is an independent scalar reference: one float32 accumulator per
// element, depth ascending, bias first — the contract both GemmNN paths must
// match bit for bit.
func refGemmNN(dst, a, b, bias []float32, m, n, k, ldb int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			if bias != nil {
				s = bias[i]
			}
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*ldb+j]
			}
			dst[i*ldb+j] = s
		}
	}
}

// portable puts the SIMD ladder on its generic rung and returns the function
// that restores the detected one: t.Cleanup(portable()).
func portable() (restore func()) {
	SetFastTier(TierGeneric)
	return func() { SetFastTier(DetectedTier()) }
}

// onEachRung runs fn as subtest "vector" on every vector rung the host can
// force, and as "portable" on the generic rung, so every
// bitwise suite covers each kernel a build and host can run.
func onEachRung(t *testing.T, fn func(t *testing.T)) {
	if DetectedTier() > TierGeneric {
		t.Run("vector", func(t *testing.T) {
			forRungs(TierFMA, func() {
				t.Logf("%v rung", FastTier())
				fn(t)
			})
		})
	}
	t.Run("portable", func(t *testing.T) {
		t.Cleanup(portable())
		fn(t)
	})
}

func TestGemmNNMatchesReference(t *testing.T) { onEachRung(t, testGemmNNMatchesReference) }

func testGemmNNMatchesReference(t *testing.T) {
	r := NewRNG(42)
	shapes := []struct{ m, n, k, pad int }{
		{1, 1, 1, 0},
		{1, 8, 3, 0},
		{4, 8, 16, 0},
		{5, 9, 7, 3},      // remainder rows and columns
		{4, 32, 300, 0},   // depth panel boundary (nnKC=256)
		{13, 40, 257, 8},  // everything misaligned
		{8, 520, 33, 0},   // column panel boundary (nnNC=512)
		{3, 16, 512, 16},  // no full row tile
		{17, 1030, 70, 2}, // multiple column panels with tail
		{1, 729, 9, 0},    // depthwise group: one row, 1x8 tiles plus a 1-column tail
		{6, 169, 40, 0},   // a row tile plus two remainder rows, direct-write stride
		{7, 5, 300, 0},    // narrower than one vector: the staged tail and 3 portable rows
	}
	for _, sh := range shapes {
		ldb := sh.n + sh.pad
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.k*ldb)
		bias := make([]float32, sh.m)
		fillRand(r, a)
		fillRand(r, b)
		fillRand(r, bias)
		want := make([]float32, sh.m*ldb)
		got := make([]float32, sh.m*ldb)
		for _, useBias := range []bool{true, false} {
			bs := bias
			if !useBias {
				bs = nil
			}
			refGemmNN(want, a, b, bs, sh.m, sh.n, sh.k, ldb)
			GemmNN(got, a, b, bs, sh.m, sh.n, sh.k, ldb)
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.n; j++ {
					g, w := got[i*ldb+j], want[i*ldb+j]
					if math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("m=%d n=%d k=%d ldb=%d bias=%v: dst[%d][%d] = %x, want %x",
							sh.m, sh.n, sh.k, ldb, useBias, i, j, math.Float32bits(g), math.Float32bits(w))
					}
				}
			}
		}
	}
}

// TestGemmNNScalarMatchesVector pins the portable kernels against the vector
// microkernels of every rung the host has, on identical inputs: the rungs
// must agree bit for bit, which is what makes the vector paths safe to enable
// at runtime.  A scalar loop over the whole problem, one accumulator per
// element in depth order, is the third witness.
func TestGemmNNScalarMatchesVector(t *testing.T) {
	r := NewRNG(7)
	m, n, k, ldb := 9, 48, 130, 48
	a := make([]float32, m*k)
	b := make([]float32, k*ldb)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, b)
	fillRand(r, bias)
	axpy := make([]float32, m*ldb)
	scalar := make([]float32, m*ldb)
	t.Cleanup(portable())
	GemmNN(axpy, a, b, bias, m, n, k, ldb)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := bias[i]
			for l := 0; l < k; l++ {
				s += float32(a[i*k+l] * b[l*ldb+j])
			}
			scalar[i*ldb+j] = s
		}
	}
	vectorRungs(t, func() {
		vec := make([]float32, m*ldb)
		GemmNN(vec, a, b, bias, m, n, k, ldb)
		for i := range vec {
			if math.Float32bits(vec[i]) != math.Float32bits(axpy[i]) || math.Float32bits(vec[i]) != math.Float32bits(scalar[i]) {
				t.Fatalf("%v rung, element %d: vector %x axpy %x scalar %x", FastTier(), i,
					math.Float32bits(vec[i]), math.Float32bits(axpy[i]), math.Float32bits(scalar[i]))
			}
		}
	})
}

// TestGemmNNAgainstGemm cross-checks the NN layout against the established
// NT kernel: transposing B must yield bit-identical results, since both
// kernels promise the same per-element summation order.
func TestGemmNNAgainstGemm(t *testing.T) { onEachRung(t, testGemmNNAgainstGemm) }

func testGemmNNAgainstGemm(t *testing.T) {
	r := NewRNG(99)
	m, n, k := 12, 37, 95
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	bt := make([]float32, n*k)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, b)
	fillRand(r, bias)
	for l := 0; l < k; l++ {
		for j := 0; j < n; j++ {
			bt[j*k+l] = b[l*n+j]
		}
	}
	nn := make([]float32, m*n)
	nt := make([]float32, m*n)
	GemmNN(nn, a, b, bias, m, n, k, n)
	Gemm(nt, a, bt, bias, m, n, k)
	for i := range nn {
		if math.Float32bits(nn[i]) != math.Float32bits(nt[i]) {
			t.Fatalf("element %d: NN %x NT %x", i, math.Float32bits(nn[i]), math.Float32bits(nt[i]))
		}
	}
}

func TestGemmNNParallelMatchesSerial(t *testing.T) { onEachRung(t, testGemmNNParallelMatchesSerial) }

func testGemmNNParallelMatchesSerial(t *testing.T) {
	r := NewRNG(5)
	m, n, k, ldb := 64, 96, 200, 104
	a := make([]float32, m*k)
	b := make([]float32, k*ldb)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, b)
	fillRand(r, bias)
	serial := make([]float32, m*ldb)
	GemmNN(serial, a, b, bias, m, n, k, ldb)
	for _, workers := range []int{2, 3, 7, 16} {
		par := make([]float32, m*ldb)
		GemmNNParallel(par, a, b, bias, m, n, k, ldb, newTeam(workers))
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Float32bits(par[i*ldb+j]) != math.Float32bits(serial[i*ldb+j]) {
					t.Fatalf("workers=%d: dst[%d][%d] differs", workers, i, j)
				}
			}
		}
	}
}

// TestGemmNNPanelRungsMatchPortable is the differential test of the
// reference panel kernel: on every vector rung the host can force,
// GemmNNAccumPanel writes the portable rung's bits for every panel width
// 1..80 and 169, 217, 465, 511, 512 and 513 (each residue of the 32- and
// 16-column tiles, AlexNet's 169-column panels, the 512-column panel and one
// past it), 1..9 and 96 rows, depths 1, 3, 255 and 256, into a destination
// wider than the panel, either bias-seeded (kb = 0) or holding partial sums
// (kb > 0), from a panel with or without spare capacity past its end.  The
// gap columns past nc must keep their bits.
func TestGemmNNPanelRungsMatchPortable(t *testing.T) {
	r := NewRNG(61)
	ncs := []int{169, 217, 465, 511, 512, 513}
	for nc := 1; nc <= 80; nc++ {
		ncs = append(ncs, nc)
	}
	for _, nc := range ncs {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 96} {
			for _, kc := range []int{1, 3, 255, 256} {
				kb := 0
				if r.Uint64()%2 == 0 {
					kb = 1 + int(r.Uint64()%7)
				}
				k, ldd := kb+kc, nc+1+int(r.Uint64()%13)
				a, panel, bias := make([]float32, m*k), make([]float32, kc*nc, kc*nc+int(r.Uint64()%2)*nnNR), make([]float32, m)
				start := make([]float32, m*ldd)
				for _, s := range [][]float32{a, panel, bias, start} {
					fillRand(r, s)
				}
				want := append([]float32(nil), start...)
				SetFastTier(TierGeneric)
				GemmNNAccumPanel(want, a, panel, bias, k, kb, kc, nc, ldd, 0, m)
				vectorRungs(t, func() {
					got := append([]float32(nil), start...)
					GemmNNAccumPanel(got, a, panel, bias, k, kb, kc, nc, ldd, 0, m)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%v rung nc=%d m=%d kc=%d kb=%d ldd=%d: dst[%d][%d] = %#x, portable %#x",
								FastTier(), nc, m, kc, kb, ldd, i/ldd, i%ldd, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				})
			}
		}
	}
}

// TestNNColumnsPerRung is the column split's table, which both tiers share:
// which tile gets which columns of a panel on each rung, and which are left
// to the tail.  A split that never hands the ZMM tile its columns writes the
// same bits and only runs slower, so no bitwise test can see it.  The rows
// are AlexNet's and CifarNet's conv panel widths (465, 217, 169, 512, 256,
// 64) and residues of the 32- and 16-column tiles.
func TestNNColumnsPerRung(t *testing.T) {
	for _, c := range []struct {
		rung               SIMDTier
		nc, zmm, ymm, tail int
	}{
		{TierAVX512, 465, 448, 16, 1},
		{TierAVX512, 217, 192, 16, 9},
		{TierAVX512, 169, 160, 0, 9},
		{TierAVX512, 512, 512, 0, 0},
		{TierAVX512, 256, 256, 0, 0},
		{TierAVX512, 64, 64, 0, 0},
		{TierAVX512, 513, 512, 0, 1},
		{TierAVX512, 63, 32, 16, 15},
		{TierAVX512, 31, 0, 16, 15},
		{TierAVX512, 7, 0, 0, 7},
		{TierFMA, 465, 0, 464, 1},
		{TierFMA, 217, 0, 208, 9},
		{TierFMA, 169, 0, 160, 9},
		{TierFMA, 512, 0, 512, 0},
		{TierFMA, 256, 0, 256, 0},
		{TierFMA, 64, 0, 64, 0},
		{TierFMA, 7, 0, 0, 7},
		{TierGeneric, 169, 0, 0, 169},
		{TierGeneric, 7, 0, 0, 7},
	} {
		zmm, ymm := columns(c.rung, c.nc)
		if tail := c.nc - zmm - ymm; zmm != c.zmm || ymm != c.ymm || tail != c.tail {
			t.Errorf("%v rung, nc=%d: ZMM %d, YMM %d, tail %d; want ZMM %d, YMM %d, tail %d",
				c.rung, c.nc, zmm, ymm, tail, c.zmm, c.ymm, c.tail)
		}
	}
}

func TestGemmNNArgChecks(t *testing.T) {
	buf := make([]float32, 16)
	cases := []struct {
		name string
		call func()
	}{
		{"zero dims", func() { GemmNN(buf, buf, buf, nil, 0, 4, 4, 4) }},
		{"stride", func() { GemmNN(buf, buf, buf, nil, 2, 4, 2, 3) }},
		{"short dst", func() { GemmNN(buf[:3], buf, buf, nil, 2, 4, 2, 4) }},
		{"short bias", func() { GemmNN(buf, buf, buf, buf[:1], 2, 2, 2, 2) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

// BenchmarkGemmNN times the reference GEMM on every rung the host can force
// at the AlexNet conv2 per-group geometry of a batch of 8 (128 x 5832 x
// 1200).  Under -v it logs whether the AVX-512 rung ran: CI runs it once so
// the 4x32 ZMM kernel executes on the runner.
func BenchmarkGemmNN(b *testing.B) {
	if DetectedTier() < TierAVX512 {
		b.Logf("AVX-512 rung not available, skipped (detected tier: %v)", DetectedTier())
	} else {
		b.Logf("AVX-512 rung exercised")
	}
	m, k, n := 128, 1200, 8*27*27
	r := NewRNG(3)
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bb)
	fillRand(r, bias)
	dst := make([]float32, m*n)
	benchRungs(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GemmNN(dst, a, bb, bias, m, n, k, n)
		}
		b.ReportMetric(float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	})
}

// BenchmarkGemmNNPortable times the portable rung at the AlexNet conv2 group
// shape of a single image (128 x 729 x 1200), the shape the single-sample
// reference convolution feeds GemmNN.  Its GMAC/s must not fall below
// BenchmarkGemmNT's, the kernel that convolution ran on before it moved here
// (a strided per-column dot on this rung measured a third slower).
func BenchmarkGemmNNPortable(b *testing.B) {
	b.Cleanup(portable())
	m, k, n := 128, 1200, 27*27
	r := NewRNG(3)
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bb)
	fillRand(r, bias)
	dst := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNN(dst, a, bb, bias, m, n, k, n)
	}
	b.ReportMetric(float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

func BenchmarkGemmNT(b *testing.B) {
	m, k, n := 128, 1200, 8*27*27
	r := NewRNG(3)
	a := make([]float32, m*k)
	bt := make([]float32, n*k)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bt)
	fillRand(r, bias)
	dst := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(dst, a, bt, bias, m, n, k)
	}
	b.ReportMetric(float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}
