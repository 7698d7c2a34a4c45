package nn

import (
	"math"
	"testing"

	"tango/internal/tensor"
)

func TestDefaultLRN(t *testing.T) {
	p := DefaultLRN()
	if p.LocalSize != 5 || p.Beta != 0.75 || p.K != 2 {
		t.Errorf("unexpected default LRN params: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default LRN params invalid: %v", err)
	}
}

func TestLRNValidate(t *testing.T) {
	bad := []LRNParams{
		{LocalSize: 0, Alpha: 1, Beta: 1, K: 1},
		{LocalSize: 5, Alpha: -1, Beta: 1, K: 1},
		{LocalSize: 5, Alpha: 1, Beta: -1, K: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid LRN params accepted", i)
		}
	}
}

func TestLRNSingleChannel(t *testing.T) {
	// One channel, n=1: out = in / (k + alpha*in^2)^beta.
	in := mustTensor(t, []float32{2}, 1, 1, 1)
	p := LRNParams{LocalSize: 1, Alpha: 1, Beta: 1, K: 1}
	out, err := NewScratch().LRN(in, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / (1.0 + 1.0*4.0)
	if math.Abs(float64(out.Data()[0])-want) > 1e-6 {
		t.Errorf("LRN = %v, want %v", out.Data()[0], want)
	}
}

func TestLRNDampensLargeActivations(t *testing.T) {
	in := tensor.New(8, 4, 4)
	in.Fill(10)
	out, err := NewScratch().LRN(in, DefaultLRN())
	if err != nil {
		t.Fatal(err)
	}
	if out.Max() >= in.Max() {
		t.Errorf("LRN should dampen activations: max %v >= %v", out.Max(), in.Max())
	}
	if out.Min() <= 0 {
		t.Errorf("LRN of positive input should stay positive, min %v", out.Min())
	}
}

func TestLRNErrors(t *testing.T) {
	if _, err := NewScratch().LRN(tensor.New(4), DefaultLRN()); err == nil {
		t.Error("non-CHW input should fail")
	}
	if _, err := NewScratch().LRN(tensor.New(1, 2, 2), LRNParams{LocalSize: 0}); err == nil {
		t.Error("invalid params should fail")
	}
}

// lrnPowLoop is the definition lrnCore is held to: every element divides by
// math.Pow of k plus the scaled float64 sum of the squares in its channel
// window, summed afresh from the lowest channel up.
func lrnPowLoop(o, in []float32, c, hw int, p LRNParams) {
	half := p.LocalSize / 2
	scale := p.Alpha / float64(p.LocalSize)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < hw; i++ {
			sum := 0.0
			for cc := max(ch-half, 0); cc <= min(ch+half, c-1); cc++ {
				v := float64(in[cc*hw+i])
				sum += v * v // exact in float64, so fusing it changes nothing
			}
			o[ch*hw+i] = float32(float64(in[ch*hw+i]) / math.Pow(p.K+float64(scale*sum), p.Beta))
		}
	}
}

// TestLRNMatchesPowLoop holds lrnCore to lrnPowLoop bit for bit, NaN payloads
// and signed zeros included, whole and split into two channel ranges.  Half
// the inputs are zeros of either sign; NaN, +Inf and -Inf sit in the windows
// of zero centres.  Besides AlexNet's parameters the sets make a zero centre
// come out NaN (k = 0, a negative k, a NaN exponent, a power that underflows
// to zero, a NaN in the window) or divide by +Inf (a negative exponent on a
// zero sum), so a shortcut for zero centres that fires where the division
// would not give that zero back fails here.  The last input holds four
// AlexNet windows whose centre quotient lies so close to a float32 rounding
// boundary that the two-root and math.Pow quotients round apart (on amd64,
// with and without FMA, and on 386), so lrnRoots without its margin check
// fails here too: random inputs almost never land there.
func TestLRNMatchesPowLoop(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	params := []LRNParams{
		DefaultLRN(),
		{LocalSize: 5, Alpha: 1e-4, Beta: 0.75, K: 0},
		{LocalSize: 5, Alpha: 1e-4, Beta: 0.75, K: 0.5},
		{LocalSize: 5, Alpha: 1e-4, Beta: 0.75, K: -3},
		{LocalSize: 3, Alpha: 1, Beta: -0.75, K: 0},
		{LocalSize: 5, Alpha: 1e-4, Beta: nan, K: 2},
		{LocalSize: 5, Alpha: 1e-4, Beta: 2000, K: 0.5},
		{LocalSize: 5, Alpha: 1e-4, Beta: inf, K: 1},
		{LocalSize: 5, Alpha: 1e-4, Beta: 0, K: 2},
		{LocalSize: 5, Alpha: 1e-4, Beta: 0.75, K: nan},
		{LocalSize: 1, Alpha: 1, Beta: 1, K: 1},
	}
	check := func(c, hw int, in []float32) {
		t.Helper()
		for _, p := range params {
			want := make([]float32, c*hw)
			lrnPowLoop(want, in, c, hw, p)
			for _, split := range []int{c, c / 2} {
				got := make([]float32, c*hw)
				lrnCore(got, in, c, hw, p, 0, split)
				if split < c {
					lrnCore(got, in, c, hw, p, split, c)
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%+v hw=%d c=%d split=%d: [%d] (input %v) = %v (%#x), pow loop %v (%#x)",
							p, hw, c, split, i, in[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
	negZero := float32(math.Copysign(0, -1))
	r := tensor.NewRNG(41)
	for _, hw := range []int{1, 7, 169} {
		for _, c := range []int{1, 3, 5, 16} {
			in := make([]float32, c*hw)
			for i := range in {
				switch r.Uint64() % 4 {
				case 0:
					in[i] = 0
				case 1:
					in[i] = negZero
				default:
					in[i] = r.Float32()*120 - 60
				}
			}
			// A zero centre with a NaN, +Inf or -Inf one channel above it.
			for k, v := range []float32{float32(nan), float32(inf), float32(-inf)} {
				if px := (k * 3) % hw; c > 1 {
					in[px] = negZero
					in[hw+px] = v
				}
			}
			check(c, hw, in)
		}
	}
	// Channels 0-4 of one pixel each; channel 2 is the centre.
	windows := [][5]uint32{
		{0x4030d985, 0x4232a08e, 0x40b971ba, 0x3e31abe4, 0x3ab9488d},
		{0x40e5f86a, 0x42a3c6f2, 0x42208f02, 0x3e2fa303, 0x3ab97b13},
		{0x40931154, 0x41fa61e9, 0xc1a4b5a0, 0x3e31349a, 0x3ab940f3},
		{0x411b832b, 0x41a2b58d, 0xc1199ebd, 0x3e315b00, 0x3ab97275},
	}
	in := make([]float32, 5*len(windows))
	for px, win := range windows {
		for ch, bits := range win {
			in[ch*len(windows)+px] = math.Float32frombits(bits)
		}
	}
	check(5, len(windows), in)
}

// TestLRNRootsCertifies: lrnRoots declines a quotient within its margin of a
// float32 rounding boundary, a base outside [2^-600, 2^600] or NaN, and an
// exponent other than 3/4, and takes exact and zero quotients.
func TestLRNRootsCertifies(t *testing.T) {
	// 1.010015f / 2.5^0.75 lies within 2^-45 of the midpoint between two
	// float32s, far inside the margin.
	v, base := math.Float32frombits(0x3f81482c), 2.5
	q := float64(v) / math.Sqrt(base*math.Sqrt(base))
	lo := float64(float32(q))
	hi := float64(math.Nextafter32(float32(q), float32(math.Copysign(1, q-lo))))
	if mid := (lo + hi) / 2; math.Abs(q-mid) > 0x1p-44*q {
		t.Fatalf("premise: %v is %g from the midpoint %v", q, math.Abs(q-mid), mid)
	}
	if _, ok := lrnRoots(v, base, 0.75); ok {
		t.Errorf("lrnRoots(%v, %v) certified a quotient %v next to a rounding boundary", v, base, q)
	}
	negZero := float32(math.Copysign(0, -1))
	for _, c := range []struct {
		v          float32
		base, beta float64
		want       float32
		ok         bool
	}{
		{27, 81, 0.75, 1, true},
		{-27, 81, 0.75, -1, true},
		{negZero, 2, 0.75, negZero, true},
		{0, 0x1p600, 0.75, 0, true},
		{1, 0x1p-601, 0.75, 0, false},
		{1, 0x1p601, 0.75, 0, false},
		{1, math.NaN(), 0.75, 0, false},
		{1, math.Inf(1), 0.75, 0, false},
		{1, 16, 0.5, 0, false},
		{1, 16, 1, 0, false},
	} {
		got, ok := lrnRoots(c.v, c.base, c.beta)
		if ok != c.ok || ok && math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("lrnRoots(%v, %v, %v) = %v, %v; want %v, %v", c.v, c.base, c.beta, got, ok, c.want, c.ok)
		}
	}
}

func TestBatchNormKnown(t *testing.T) {
	in := mustTensor(t, []float32{1, 2, 3, 4}, 1, 2, 2)
	mean := mustTensor(t, []float32{2.5}, 1)
	variance := mustTensor(t, []float32{1.25}, 1)
	out, err := NewScratch().BatchNorm(in, BatchNormParams{Mean: mean, Variance: variance, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Normalized output should have roughly zero mean and unit variance.
	if math.Abs(out.Sum()) > 1e-4 {
		t.Errorf("batchnorm mean %v, want ~0", out.Sum()/4)
	}
	varSum := 0.0
	for _, v := range out.Data() {
		varSum += float64(v) * float64(v)
	}
	if math.Abs(varSum/4-1) > 1e-3 {
		t.Errorf("batchnorm variance %v, want ~1", varSum/4)
	}
}

func TestBatchNormErrors(t *testing.T) {
	in := tensor.New(2, 2, 2)
	if _, err := NewScratch().BatchNorm(in, BatchNormParams{}); err == nil {
		t.Error("missing stats should fail")
	}
	if _, err := NewScratch().BatchNorm(in, BatchNormParams{Mean: tensor.New(1), Variance: tensor.New(2)}); err == nil {
		t.Error("stat length mismatch should fail")
	}
	if _, err := NewScratch().BatchNorm(tensor.New(4), BatchNormParams{Mean: tensor.New(1), Variance: tensor.New(1)}); err == nil {
		t.Error("non-CHW input should fail")
	}
}

func TestScaleKnown(t *testing.T) {
	in := mustTensor(t, []float32{1, 2, 3, 4}, 2, 1, 2)
	gamma := mustTensor(t, []float32{2, 10}, 2)
	beta := mustTensor(t, []float32{1, 0}, 2)
	out, err := NewScratch().Scale(in, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 5, 30, 40}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestScaleWithoutBeta(t *testing.T) {
	in := mustTensor(t, []float32{1, 2}, 1, 1, 2)
	gamma := mustTensor(t, []float32{3}, 1)
	out, err := NewScratch().Scale(in, gamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 3 || out.Data()[1] != 6 {
		t.Errorf("scale without beta = %v", out.Data())
	}
}

func TestScaleErrors(t *testing.T) {
	in := tensor.New(2, 2, 2)
	if _, err := NewScratch().Scale(in, tensor.New(1), nil); err == nil {
		t.Error("gamma length mismatch should fail")
	}
	if _, err := NewScratch().Scale(in, tensor.New(2), tensor.New(3)); err == nil {
		t.Error("beta length mismatch should fail")
	}
	if _, err := NewScratch().Scale(tensor.New(4), tensor.New(2), nil); err == nil {
		t.Error("non-CHW input should fail")
	}
}

// portableRung puts the SIMD ladder on its generic rung until tb ends.
func portableRung(tb testing.TB) {
	tensor.SetFastTier(tensor.TierGeneric)
	tb.Cleanup(func() { tensor.SetFastTier(tensor.DetectedTier()) })
}

// forFastTiers runs fn under each SIMD rung the host can force, then restores
// the detected one.
func forFastTiers(fn func(tier tensor.SIMDTier)) {
	defer tensor.SetFastTier(tensor.DetectedTier())
	for tier := tensor.TierGeneric; tier <= tensor.DetectedTier(); tier++ {
		tensor.SetFastTier(tier)
		fn(tier)
	}
}

// lrnFastScalarLoop is the definition lrnCoreFast is held to: the rolling
// float64 window sums and the two-square-root denominator, one element at a
// time, the inexact product rounded before the add that follows it.
func lrnFastScalarLoop(o, in []float32, c, hw int, p LRNParams) {
	half := p.LocalSize / 2
	scale := p.Alpha / float64(p.LocalSize)
	sums := make([]float64, hw)
	for cc := 0; cc <= half && cc < c; cc++ {
		for i := 0; i < hw; i++ {
			v := float64(in[cc*hw+i])
			sums[i] += v * v // exact in float64, so fusing it changes nothing
		}
	}
	for ch := 0; ch < c; ch++ {
		for i := 0; i < hw; i++ {
			d := p.K + float64(scale*sums[i])
			o[ch*hw+i] = float32(float64(in[ch*hw+i]) / math.Sqrt(d*math.Sqrt(d)))
		}
		if add := ch + half + 1; add < c {
			for i := 0; i < hw; i++ {
				v := float64(in[add*hw+i])
				sums[i] += v * v
			}
		}
		if sub := ch - half; sub >= 0 {
			for i := 0; i < hw; i++ {
				v := float64(in[sub*hw+i])
				sums[i] -= v * v
			}
		}
	}
}

// TestLRNFastMatchesScalarLoop: lrnCoreFast writes the scalar loop's bits on
// every SIMD rung, for plane sizes on both sides of every vector width
// (AlexNet's 3025 and 729 are odd) and channel counts below, at and above the
// window, with signed zeros, denormals, infinities and NaNs in the input.  A
// NaN must come out a NaN; which payload an Inf-Inf window sum or two NaN
// operands leave is not pinned.
func TestLRNFastMatchesScalarLoop(t *testing.T) {
	denormal := math.Float32frombits(1)
	salt := []float32{0, float32(math.Copysign(0, -1)), denormal, -denormal,
		math.Float32frombits(0x007fffff), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), 3.4e38, -3.4e38, 1e-20}
	p := DefaultLRN()
	r := tensor.NewRNG(29)
	for _, hw := range []int{1, 7, 8, 9, 169, 729, 3025} {
		for _, c := range []int{1, 2, 5, 96} {
			for _, salted := range []bool{false, true} {
				in := tensor.New(c * hw)
				in.FillUniform(r, -60, 60)
				if salted {
					for i, v := range salt {
						in.Data()[(i*131+hw/2)%(c*hw)] = v
					}
				}
				want := make([]float32, c*hw)
				lrnFastScalarLoop(want, in.Data(), c, hw, p)
				forFastTiers(func(tier tensor.SIMDTier) {
					got := make([]float32, c*hw)
					lrnCoreFast(got, in.Data(), c, hw, p, make([]float64, hw), 0, hw)
					for i := range want {
						g, w := got[i], want[i]
						if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
							t.Fatalf("%v rung hw=%d c=%d salted=%v: [%d] = %v (%#x), scalar loop %v (%#x)",
								tier, hw, c, salted, i, g, math.Float32bits(g), w, math.Float32bits(w))
						}
					}
				})
			}
		}
	}
}
