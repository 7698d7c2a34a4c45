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

// onEachRung runs fn on the detected GemmNN rung and again with the portable
// rung forced, so every bitwise suite covers the kernel non-AVX2 and
// non-amd64 builds execute.
func onEachRung(t *testing.T, fn func(t *testing.T)) {
	if gemmNNVector {
		t.Run("vector", fn)
	}
	t.Run("portable", func(t *testing.T) {
		t.Cleanup(ForcePortableGemmNN())
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
		{7, 5, 300, 0},    // narrower than one vector: strided dot only
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
// microkernels (when present) on identical inputs: the rungs must agree bit
// for bit, which is what makes the AVX2 path safe to enable at runtime.  The
// strided dot is also run over the whole problem, wider than any range the
// dispatcher hands it.
func TestGemmNNScalarMatchesVector(t *testing.T) {
	if !gemmNNVector {
		t.Skip("no vector kernel on this platform")
	}
	r := NewRNG(7)
	m, n, k, ldb := 9, 48, 130, 48
	a := make([]float32, m*k)
	b := make([]float32, k*ldb)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, b)
	fillRand(r, bias)
	vec := make([]float32, m*ldb)
	axpy := make([]float32, m*ldb)
	dot := make([]float32, m*ldb)
	GemmNN(vec, a, b, bias, m, n, k, ldb)
	restore := ForcePortableGemmNN()
	GemmNN(axpy, a, b, bias, m, n, k, ldb)
	restore()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dot[i*ldb+j] = bias[i]
		}
	}
	gemmNNDot(dot, a, b, k, ldb, ldb, 0, k, 0, n, 0, m)
	for i := range vec {
		if math.Float32bits(vec[i]) != math.Float32bits(axpy[i]) || math.Float32bits(vec[i]) != math.Float32bits(dot[i]) {
			t.Fatalf("element %d: vector %x axpy %x dot %x", i,
				math.Float32bits(vec[i]), math.Float32bits(axpy[i]), math.Float32bits(dot[i]))
		}
	}
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

func BenchmarkGemmNN(b *testing.B) {
	// AlexNet conv2 per-group geometry at batch 8: the shape the batched
	// engine feeds the kernel.
	m, k, n := 128, 1200, 8*27*27
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

// BenchmarkGemmNNPortable times the portable rung at the AlexNet conv2 group
// shape of a single image (128 x 729 x 1200), the shape the single-sample
// reference convolution feeds GemmNN.  Its GMAC/s must not fall below
// BenchmarkGemmNT's, the kernel that convolution ran on before it moved here
// (a strided per-column dot on this rung measured a third slower).
func BenchmarkGemmNNPortable(b *testing.B) {
	b.Cleanup(ForcePortableGemmNN())
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
