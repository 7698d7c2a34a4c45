package tensor

import (
	"fmt"
	"testing"

	"tango/internal/par"
)

// naiveGemm is the scalar reference: one accumulator per element, reduction
// index ascending — the documented summation order of Gemm.
func naiveGemm(dst, a, bt, bias []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			if bias != nil {
				s = bias[i]
			}
			for l := 0; l < k; l++ {
				s += a[i*k+l] * bt[j*k+l]
			}
			dst[i*n+j] = s
		}
	}
}

func fillRand(r *RNG, s []float32) {
	for i := range s {
		s[i] = r.Float32()*2 - 1
	}
}

func TestGemmMatchesNaiveBitExact(t *testing.T) {
	r := NewRNG(7)
	// Sizes crossing the register tile (4) and depth block (256) boundaries,
	// including degenerate dims.
	cases := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 255}, {8, 3, 256},
		{7, 11, 257}, {16, 30, 515}, {33, 2, 600}, {2, 64, 1},
	}
	for _, c := range cases {
		a := make([]float32, c.m*c.k)
		bt := make([]float32, c.n*c.k)
		bias := make([]float32, c.m)
		fillRand(r, a)
		fillRand(r, bt)
		fillRand(r, bias)
		want := make([]float32, c.m*c.n)
		naiveGemm(want, a, bt, bias, c.m, c.n, c.k)
		for _, useBias := range []bool{true, false} {
			b := bias
			if !useBias {
				b = nil
				naiveGemm(want, a, bt, nil, c.m, c.n, c.k)
			}
			got := make([]float32, c.m*c.n)
			// Poison to catch unwritten elements.
			for i := range got {
				got[i] = 12345
			}
			Gemm(got, a, bt, b, c.m, c.n, c.k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("gemm %dx%dx%d bias=%v: element %d = %g, want %g (bit-exact)",
						c.m, c.n, c.k, useBias, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMatVecBiasMatchesScalar(t *testing.T) {
	r := NewRNG(13)
	for _, c := range []struct{ rows, cols int }{{1, 1}, {3, 9}, {4, 16}, {7, 300}, {101, 33}} {
		w := make([]float32, c.rows*c.cols)
		x := make([]float32, c.cols)
		bias := make([]float32, c.rows)
		fillRand(r, w)
		fillRand(r, x)
		fillRand(r, bias)
		want := make([]float32, c.rows)
		for i := 0; i < c.rows; i++ {
			s := bias[i]
			for l := 0; l < c.cols; l++ {
				s += w[i*c.cols+l] * x[l]
			}
			want[i] = s
		}
		got := make([]float32, c.rows)
		MatVecBias(got, w, x, bias, c.rows, c.cols)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("matvec %dx%d: row %d = %g, want %g", c.rows, c.cols, i, got[i], want[i])
			}
		}
		par := make([]float32, c.rows)
		MatVecBiasParallel(par, w, x, bias, c.rows, c.cols, newTeam(4))
		for i := range want {
			if par[i] != want[i] {
				t.Fatalf("parallel matvec %dx%d: row %d = %g, want %g", c.rows, c.cols, i, par[i], want[i])
			}
		}
	}
}

func TestGemmPanicsOnBadArgs(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	buf := make([]float32, 16)
	expectPanic("zero dim", func() { Gemm(buf, buf, buf, nil, 0, 4, 4) })
	expectPanic("short dst", func() { Gemm(make([]float32, 3), buf, buf, nil, 2, 2, 2) })
	expectPanic("short bias", func() { Gemm(buf, buf, buf, make([]float32, 1), 4, 2, 2) })
	expectPanic("matvec zero dim", func() { MatVecBias(buf, buf, buf, nil, 0, 4) })
	expectPanic("matvec short x", func() { MatVecBias(buf, buf, make([]float32, 1), nil, 2, 4) })
}

func BenchmarkGemm(b *testing.B) {
	// AlexNet conv2 geometry (one group): 128 x 729 x 1200.
	m, n, k := 128, 729, 1200
	r := NewRNG(3)
	a := make([]float32, m*k)
	bt := make([]float32, n*k)
	bias := make([]float32, m)
	fillRand(r, a)
	fillRand(r, bt)
	fillRand(r, bias)
	dst := make([]float32, m*n)
	b.SetBytes(int64(m) * int64(n) * int64(k) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(dst, a, bt, bias, m, n, k)
	}
}

func ExampleGemm() {
	// C = A * Bᵀ with A = [[1 2]; [3 4]], B columns [5 6] and [7 8].
	a := []float32{1, 2, 3, 4}
	bt := []float32{5, 6, 7, 8}
	dst := make([]float32, 4)
	Gemm(dst, a, bt, nil, 2, 2, 2)
	fmt.Println(dst)
	// Output: [17 23 39 53]
}

// newTeam returns an n-worker Team for the parallel kernels.
func newTeam(n int) *Team { return &Team{Team: par.NewTeam(n)} }
