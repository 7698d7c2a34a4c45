package tensor

import (
	"encoding/binary"
	"math"
)

// Symmetric int8 quantized kernels: the lowest rung of the fast-numerics
// tier.  Weights are quantized once per matrix with one scale per output
// row (per-channel), activations once per layer invocation with a single
// scale, products accumulate exactly in int32 and results dequantize to
// float32 at layer exit.
//
// Two representation choices serve the vector microkernels while keeping
// every tier bit-identical in integer space:
//
//   - Weights quantize to [-63, 63] instead of the full int8 range: the
//     AVX2 kernel's VPMADDUBSW step sums two adjacent u8*s8 products into
//     an int16, and 255*63*2 = 32130 is the widest weight range that cannot
//     saturate it (the VNNI kernel's VPDPBUSD sums straight into int32).
//     The lost bit of weight precision is part of the tier's accuracy
//     contract (validated by the top-1 golden tests).
//   - Activations are stored offset-binary as u8 = q+128.  The kernel
//     accumulates sum((q+128)*w) and callers subtract the per-row
//     compensation 128*sum(w) (precomputed at pack time), recovering
//     sum(q*w) exactly in integer arithmetic.  The generic fallback
//     computes the same quantity the same way, so kernel and fallback agree
//     bit for bit and the tier override never changes int8 results.
//
// Depth dimensions are zero-padded to int8KPad: padded weights are zero, so
// padded positions contribute nothing regardless of the activation bytes.

const (
	// int8WeightMax is the symmetric weight quantization range (see above).
	int8WeightMax = 63
	// int8KPad is the depth padding unit: one full iteration of the widest
	// int8 kernel, so the vector kernels never need a scalar depth tail.
	int8KPad = 32
	// int8NR is the column tile of the int8 GEMM microkernels: a tile's
	// depth block (int8NR columns x 4 depth steps) is one 64-byte register.
	int8NR = 16
	// int8MR is the row tile of the int8 GEMM: the VNNI microkernel's eight
	// weight rows, two calls of the AVX2 one.
	int8MR = 8
	// int8QuantCols is the column width of the vector quantizer: half a
	// tile, so only nc%8 ragged columns take the scalar loop.
	int8QuantCols = int8NR / 2
)

// PackedInt8 holds an m x k weight matrix quantized and packed once for the
// int8 kernels: row-major int8 with rows padded to a multiple of int8KPad,
// one scale and one compensation term per output row.  Immutable after
// PackInt8 and safe for concurrent use.
type PackedInt8 struct {
	wq     []int8
	scales []float32
	comp   []int32
	m, k   int
	kPad   int
}

// Cols returns k, the unpadded depth dimension.
func (p *PackedInt8) Cols() int { return p.k }

// KPad returns the padded depth stride; activation buffers fed to the int8
// kernels must be padded to this length.
func (p *PackedInt8) KPad() int { return p.kPad }

// Bytes returns the storage held by the quantized pack: int8 rows plus the
// per-row scale and compensation vectors.
func (p *PackedInt8) Bytes() int64 {
	if p == nil {
		return 0
	}
	return int64(len(p.wq)) + int64(len(p.scales))*4 + int64(len(p.comp))*4
}

// PackInt8 quantizes the row-major m x k float32 matrix a to the packed
// int8 layout with one symmetric scale per row.
func PackInt8(a []float32, m, k int) *PackedInt8 {
	if m <= 0 || k <= 0 {
		panic("tensor: PackInt8 dims must be positive")
	}
	if len(a) < m*k {
		panic("tensor: PackInt8 buffer too small")
	}
	kPad := (k + int8KPad - 1) &^ (int8KPad - 1)
	p := &PackedInt8{
		wq:     make([]int8, m*kPad),
		scales: make([]float32, m),
		comp:   make([]int32, m),
		m:      m, k: k, kPad: kPad,
	}
	for i := 0; i < m; i++ {
		row := a[i*k : i*k+k]
		maxAbs := MaxAbs(row)
		scale := maxAbs / int8WeightMax
		if maxAbs == 0 {
			scale = 1
		}
		inv := 1 / scale
		var sum int32
		dst := p.wq[i*kPad : i*kPad+k]
		l := 0
		if n := k &^ 7; n > 0 && int8Vector() {
			sum = quantRowS8AVX2(dst, row, n, inv)
			l = n
		}
		for ; l < k; l++ {
			q := quantRound(float32(row[l]*inv), int8WeightMax)
			dst[l] = int8(q)
			sum += q
		}
		p.scales[i] = scale
		p.comp[i] = 128 * sum
	}
	return p
}

// PermuteCols returns p with its depth reordered: column l is p's column
// from[l], or a zero weight where from[l] < 0.  With every column named once
// the row scales and compensation terms carry over, as neither depends on
// column order or zero weights.
func (p *PackedInt8) PermuteCols(from []int32) *PackedInt8 {
	k := len(from)
	kPad := (k + int8KPad - 1) &^ (int8KPad - 1)
	q := &PackedInt8{wq: make([]int8, p.m*kPad), scales: p.scales, comp: p.comp, m: p.m, k: k, kPad: kPad}
	for i := 0; i < p.m; i++ {
		src, dst := p.wq[i*p.kPad:(i+1)*p.kPad], q.wq[i*kPad:(i+1)*kPad]
		for l, c := range from {
			if c >= 0 {
				dst[l] = src[c]
			}
		}
	}
	return q
}

// MaxAbs returns the largest |v| in src (0 for an empty slice; NaNs are
// skipped), on the vector rungs through maxAbsAVX2 with a scalar tail.
func MaxAbs(src []float32) float32 {
	var m float32
	i := 0
	if n := len(src) &^ 7; n > 0 && int8Vector() {
		m = maxAbsAVX2(src, n)
		i = n
	}
	for _, v := range src[i:] {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// quantRound rounds v to the nearest integer (half away from zero) clamped
// to [-limit, limit].  Every quantizer call site passes the product as an
// explicit float32(v * inv): the conversion forbids the compiler from fusing
// the multiply into the rounding add (GOAMD64=v3), which would round exact
// ties differently from the vector rungs, which round the product first.
func quantRound(v float32, limit int32) int32 {
	q := roundHalfAway(v)
	if q > limit {
		q = limit
	}
	if q < -limit {
		q = -limit
	}
	return q
}

// QuantizeU8 quantizes src symmetrically to offset-binary u8 (q+128) and
// returns the activation scale.  dst must have room for len(src) plus any
// padding the caller needs; padded bytes are left untouched (padded weight
// positions are zero, so their activation bytes never matter).
func QuantizeU8(dst []uint8, src []float32) float32 {
	scale := U8Scale(MaxAbs(src))
	inv := 1 / scale
	for i, v := range src {
		dst[i] = uint8(quantRound(float32(v*inv), 127) + 128)
	}
	return scale
}

// Int8PackedLen returns the activation buffer size PackColsU8 needs for a
// kPad x n matrix: column tiles of int8NR are padded up so the kernel can
// stream whole tiles.
func Int8PackedLen(kPad, n int) int {
	return int8ColsPadded(n) * kPad
}

// Int8AccLen returns the int32 staging length of an m-row, n-column product:
// rows are padded so the kernel stores the ragged last tile like any other.
func Int8AccLen(m, n int) int {
	return m * int8ColsPadded(n)
}

// int8ColsPadded rounds n up to whole column tiles.
func int8ColsPadded(n int) int {
	return (n + int8NR - 1) &^ (int8NR - 1)
}

// PackColsU8 quantizes the l-major k x n float32 matrix b (row stride ldb)
// into the column-tile-major u8 block layout the int8 GEMM kernel consumes:
// tiles of int8NR columns store their depth-4-interleaved blocks
// contiguously, so the kernel's activation reads are fully sequential:
// q(b[l][j]) + 128 lands at offset
// (j/int8NR)*kPad*int8NR + (l/4)*int8NR*4 + (j%int8NR)*4 + l%4.  Depth rows [k, kPad)
// and columns [n, tile end) are zeroed for determinism.  dst must hold
// Int8PackedLen(kPad, n) bytes; kPad must be a multiple of int8KPad
// covering k.  Returns the activation scale.
func PackColsU8(dst []uint8, b []float32, k, n, ldb, kPad int) float32 {
	var maxAbs float32
	for l := 0; l < k; l++ {
		if m := MaxAbs(b[l*ldb : l*ldb+n]); m > maxAbs {
			maxAbs = m
		}
	}
	scale := U8Scale(maxAbs)
	zeroPad8(dst, k, n, kPad)
	quantizeTilesU8(dst, b, k, n, ldb, kPad, 1/scale)
	return scale
}

// U8Scale returns the offset-binary activation quantization scale for data
// whose maximum absolute value is maxAbs, using exactly QuantizeU8's rule.
func U8Scale(maxAbs float32) float32 {
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / 127
}

// quantizeTilesU8 is PackColsU8's quantize-and-interleave core: it writes the
// k x nc block of src (rows lds floats apart) into the tile layout.  On the
// vector rungs the whole 4-row x 8-column half-tile blocks go through
// quantTilesU8AVX2; the scalar loop takes the ragged edges (nc%8 columns,
// k%4 rows) and everything on the generic rung.
func quantizeTilesU8(dst []uint8, src []float32, k, nc, lds, kPad int, inv float32) {
	if nc <= 0 || lds < nc || k > kPad || len(src) < (k-1)*lds+nc || len(dst) < Int8PackedLen(kPad, nc) {
		panic("tensor: u8 quantize buffers too small")
	}
	kVec, ncVec := 0, 0
	if int8Vector() && k >= 4 && nc >= int8QuantCols {
		kVec, ncVec = k&^3, nc&^(int8QuantCols-1)
		quantTilesU8AVX2(dst, src, kVec/4, ncVec/int8QuantCols, lds, kPad, inv)
		quantizeTilesScalar(dst, src, 0, kVec, ncVec, nc, lds, kPad, inv)
	}
	quantizeTilesScalar(dst, src, kVec, k, 0, nc, lds, kPad, inv)
}

// quantizeTilesScalar quantizes rows [l0, l1) x columns [j0, j1) of the
// block quantizeTilesU8 describes.
func quantizeTilesScalar(dst []uint8, src []float32, l0, l1, j0, j1, lds, kPad int, inv float32) {
	for l := l0; l < l1; l++ {
		base := (l/4)*int8NR*4 + l%4
		row := src[l*lds : l*lds+j1]
		for j := j0; j < j1; j++ {
			dst[(j/int8NR)*kPad*int8NR+base+(j%int8NR)*4] = uint8(roundHalfAway(float32(row[j]*inv)) + 128)
		}
	}
}

// QuantizePlaneU8 quantizes rows x cols pixels of `lanes` float planes (1,
// or 4 for a channel quad) into one u8 plane of lanes-byte pixels: pixel
// (y, x) of plane r, src[r*planeStride + y*cols + x], lands at
// dst[y*ldd + x*lanes + r] as q+128 under PackColsU8's clamp-free rounding.
// The scalar loop is the definition and the generic rung; the vector rungs
// take each row through quantU8AVX2, or quantTilesU8AVX2 as one depth block
// of 4-byte tiles.
func QuantizePlaneU8(dst []uint8, src []float32, lanes, rows, cols, planeStride, ldd int, inv float32) {
	if (lanes != 1 && lanes != 4) || rows < 1 || cols < 1 || ldd < cols*lanes || (lanes > 1 && planeStride < rows*cols) ||
		len(src) < (lanes-1)*planeStride+rows*cols || len(dst) < (rows-1)*ldd+cols*lanes {
		panic("tensor: QuantizePlaneU8 arguments out of range")
	}
	vec := int8Vector() && cols >= int8QuantCols
	for y := 0; y < rows; y++ {
		d, s := dst[y*ldd:y*ldd+cols*lanes], src[y*cols:]
		if !vec {
			for i := range d {
				d[i] = uint8(roundHalfAway(float32(s[i%lanes*planeStride+i/lanes]*inv)) + 128)
			}
			continue
		}
		n := cols &^ (int8QuantCols - 1)
		quantRowU8(d, s, lanes, n, planeStride, inv)
		if n < cols { // the ragged end: redo the row's last eight pixels
			at := cols - int8QuantCols
			quantRowU8(d[at*lanes:], s[at:], lanes, int8QuantCols, planeStride, inv)
		}
	}
}

// quantRowU8 is QuantizePlaneU8's vector step over n pixels, a positive
// multiple of 8.
func quantRowU8(dst []uint8, src []float32, lanes, n, planeStride int, inv float32) {
	if lanes == 1 {
		quantU8AVX2(dst, src, n, inv)
	} else {
		quantTilesU8AVX2(dst, src, 1, n/int8QuantCols, planeStride, 4, inv)
	}
}

// GatherPanelU8 stages a column panel (nc <= FusedNC) of quantized
// activations: depth row l < k of column j < nc is src[rowOff[l]+colOff[j]],
// at its PackColsU8 position (n = nc); rows [k, kPad) and the last tile's
// columns past nc are zeroed.  The byte loop is the definition and the
// generic rung; the vector rungs first move whole blocks (gatherBlocks).
func GatherPanelU8(dst, src []uint8, rowOff, colOff []int32, k, nc, kPad int) {
	if nc <= 0 || nc > FusedNC || k < 0 || k > kPad || len(rowOff) < k || len(colOff) < nc || len(dst) < Int8PackedLen(kPad, nc) {
		panic("tensor: GatherPanelU8 arguments out of range")
	}
	zeroPad8(dst, k, nc, kPad)
	l := 0
	if int8Vector() {
		l = gatherBlocks(dst, src, rowOff[:k], colOff[:nc], kPad)
	}
	for ; l < k; l++ {
		for j, c := range colOff[:nc] {
			dst[j/int8NR*kPad*int8NR+(l/4)*4*int8NR+j%int8NR*4+l%4] = src[int(rowOff[l])+int(c)]
		}
	}
}

// gatherBlocks moves the leading depth blocks whose four rows are adjacent
// bytes (a column is the dword at its offset) and returns the depth covered.
// Columns are planned once, by quads within a tile: four consecutive dwords
// move as one 16-byte copy, four consecutive bytes (stride-1 planar) as two
// overlapping dword loads spread into four dwords, other columns as dwords.
func gatherBlocks(dst, src []uint8, rowOff, cols []int32, kPad int) int {
	var copies, spreads [2][FusedNC / 4]int32 // destination in block 0, source in the block's rows
	var singles [2][FusedNC]int32
	nc, ns, n1 := 0, 0, 0
	for j := 0; j < len(cols); j += 4 {
		c, at := cols[j:min(j+4, len(cols))], int32(j/int8NR*kPad*int8NR+j%int8NR*4)
		switch {
		case len(c) == 4 && c[1] == c[0]+4 && c[2] == c[0]+8 && c[3] == c[0]+12:
			copies[0][nc], copies[1][nc] = at, c[0]
			nc++
		case len(c) == 4 && c[1] == c[0]+1 && c[2] == c[0]+2 && c[3] == c[0]+3:
			spreads[0][ns], spreads[1][ns] = at, c[0]
			ns++
		default:
			for i, ci := range c {
				singles[0][n1], singles[1][n1] = at+int32(4*i), ci
				n1++
			}
		}
	}
	l := 0
	for ; l+4 <= len(rowOff); l += 4 {
		r := rowOff[l : l+4]
		if r[1] != r[0]+1 || r[2] != r[0]+2 || r[3] != r[0]+3 {
			break
		}
		blk, s := dst[l*int8NR:], src[r[0]:]
		for i, d := range copies[0][:nc] {
			*(*[16]uint8)(blk[d:]) = *(*[16]uint8)(s[copies[1][i]:])
		}
		for i, d := range spreads[0][:ns] {
			f := spreads[1][i]
			v := uint64(binary.LittleEndian.Uint32(s[f:])) | uint64(binary.LittleEndian.Uint32(s[f+3:]))<<24
			binary.LittleEndian.PutUint64(blk[d:], v&0xffffffff|(v>>8&0xffffffff)<<32)
			binary.LittleEndian.PutUint64(blk[d+8:], v>>16&0xffffffff|(v>>24&0xffffffff)<<32)
		}
		for i, d := range singles[0][:n1] {
			binary.LittleEndian.PutUint32(blk[d:], binary.LittleEndian.Uint32(s[singles[1][i]:]))
		}
	}
	return l
}

// GemmInt8Panel computes one fused column panel of the quantized GEMM:
// dst[i*ldd + j] = dequant(sum_l Wq[i][l] * bp[l][j]) + bias[i] for every
// weight row i and j in [0, nc).  bp holds the full-depth packed
// activations of the panel's nc columns (PackColsU8 / GatherPanelU8
// layout with n = nc, quantized with xScale); acc is the int32 staging
// buffer (Int8AccLen(m, nc)).  Unlike the float fused path there is no
// depth-slab accumulation — the int8 kernel consumes the whole padded depth
// in one pass — so one call finishes the panel.  Integer accumulation is
// exact: results are identical for any panel grid, tier or worker fan-out.
func GemmInt8Panel(dst []float32, pw *PackedInt8, bp []uint8, acc []int32, bias []float32, xScale float32, nc, ldd int) {
	m, kPad := pw.m, pw.kPad
	if nc <= 0 {
		panic("tensor: GemmInt8Panel nc must be positive")
	}
	if ldd < nc || len(dst) < (m-1)*ldd+nc || len(acc) < Int8AccLen(m, nc) || len(bp) < Int8PackedLen(kPad, nc) {
		panic("tensor: GemmInt8Panel buffers too small")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: GemmInt8Panel bias too short")
	}
	gemmInt8Rows(dst, pw, bp, acc, bias, xScale, nc, ldd, 0, m)
}

// roundHalfAway rounds to the nearest integer, halves away from zero: add
// 0.5 carrying x's sign, truncate.  It is the one rounding of the tier — the
// vector quantizers reproduce these two operations exactly — and it has no
// clamp: PackColsU8 inputs satisfy |v*inv| <= 127*(1+ulp), so the result
// always fits [-127, 127] and matches quantRound(v, 127) bit for bit.
func roundHalfAway(x float32) int32 {
	half := math.Float32frombits(0x3f000000 | math.Float32bits(x)&0x80000000)
	return int32(x + half)
}

// zeroPad8 zeroes exactly the padded positions of a PackColsU8 buffer: the
// depth rows [k, kPad) of every column tile plus any ragged columns of the
// last tile.  Valid positions are all overwritten by the quantize loop, so
// the buffer need not start out clean.
func zeroPad8(dst []uint8, k, n, kPad int) {
	tiles := (n + int8NR - 1) / int8NR
	kFloor := k &^ 3 // the partial depth block holds pad bytes too
	for t := 0; t < tiles; t++ {
		tail := dst[t*kPad*int8NR+kFloor*int8NR : (t+1)*kPad*int8NR]
		for i := range tail {
			tail[i] = 0
		}
	}
	if r := n % int8NR; r != 0 {
		last := dst[(tiles-1)*kPad*int8NR : tiles*kPad*int8NR]
		for i := range last {
			last[i] = 0
		}
	}
}

// GemmInt8 computes dst = dequant(Wq * Xq) + bias for the packed int8
// weight matrix pw (m x k) against the packed u8 activation matrix bp
// (PackColsU8 layout, kPad x n, quantized with xScale).  acc is the int32
// accumulator staging buffer (Int8AccLen(m, n)); dst is m x n row-major.
// bias has one element per row and may be nil.  The integer accumulation is
// exact, so results are identical across tiers and worker counts.
func GemmInt8(dst []float32, pw *PackedInt8, bp []uint8, acc []int32, bias []float32, xScale float32, n int, t *Team) {
	m, kPad := pw.m, pw.kPad
	if n <= 0 {
		panic("tensor: GemmInt8 n must be positive")
	}
	if len(dst) < m*n || len(acc) < Int8AccLen(m, n) || len(bp) < Int8PackedLen(kPad, n) {
		panic("tensor: GemmInt8 buffers too small")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: GemmInt8 bias too short")
	}
	if !t.forks(m, int64(m)*int64(n)*int64(kPad)) {
		gemmInt8Rows(dst, pw, bp, acc, bias, xScale, n, n, 0, m)
		return
	}
	t.rows = rowJob{kernel: gemmInt8Part, m: m, dst: dst, pq: pw, u8: bp, acc: acc, bias: bias, scale: xScale, n: n}
	t.forRows(int8MR)
}

func gemmInt8Part(j *rowJob, r0, r1 int) {
	gemmInt8Rows(j.dst, j.pq, j.u8, j.acc, j.bias, j.scale, j.n, j.n, r0, r1)
}

// gemmInt8Rows computes weight rows [r0, r1) of an n-column int8 product
// into acc (rows padded to whole column tiles) and dequantizes them into dst
// (row stride ldd).
func gemmInt8Rows(dst []float32, pw *PackedInt8, bp []uint8, acc []int32, bias []float32, xScale float32, n, ldd, r0, r1 int) {
	kPad := pw.kPad
	nPad := int8ColsPadded(n)
	i := r0
	if int8Vector() {
		for ; i+int8MR <= r1; i += int8MR {
			gemmInt8Kernel(acc[i*nPad:], pw.wq[i*kPad:], bp, kPad/4, nPad, kPad)
		}
	}
	if i < r1 {
		gemmInt8Scalar(acc, pw.wq, bp, kPad, n, nPad, i, r1)
	}
	for i := r0; i < r1; i++ {
		f := pw.scales[i] * xScale
		c := pw.comp[i]
		var b0 float32
		if bias != nil {
			b0 = bias[i]
		}
		ai := acc[i*nPad : i*nPad+n]
		di := dst[i*ldd : i*ldd+n]
		j := 0
		if nv := n &^ 7; nv > 0 && int8Vector() {
			dequantRowAVX2(di[:nv], ai, c, f, b0)
			j = nv
		}
		for ; j < n; j++ {
			// Product rounded before the add: never fused, as in quantRound.
			di[j] = float32(float32(ai[j]-c)*f) + b0
		}
	}
}

// gemmInt8Scalar is the portable kernel for weight rows [r0, r1), acc rows
// ldacc apart: identical integer results to the vector kernels (sum of w *
// offset-binary activation bytes), which leave it the m%int8MR remainder rows.
func gemmInt8Scalar(acc []int32, wq []int8, bp []uint8, kPad, n, ldacc, r0, r1 int) {
	for i := r0; i < r1; i++ {
		row := wq[i*kPad : i*kPad+kPad]
		for j := 0; j < n; j++ {
			tile := bp[(j/int8NR)*kPad*int8NR+(j%int8NR)*4:]
			var s int32
			for l := 0; l < kPad; l += 4 {
				base := l * int8NR
				s += int32(row[l])*int32(tile[base]) +
					int32(row[l+1])*int32(tile[base+1]) +
					int32(row[l+2])*int32(tile[base+2]) +
					int32(row[l+3])*int32(tile[base+3])
			}
			acc[i*ldacc+j] = s
		}
	}
}

// MatVecInt8 computes dst = dequant(Wq * xq) + bias for a quantized vector
// xq (QuantizeU8 offset-binary layout padded to pw.KPad() bytes, scale
// xScale).  Identical integer results across tiers and worker counts.
func MatVecInt8(dst []float32, pw *PackedInt8, xq []uint8, bias []float32, xScale float32, t *Team) {
	m, kPad := pw.m, pw.kPad
	if len(dst) < m || len(xq) < kPad {
		panic("tensor: MatVecInt8 buffers too small")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: MatVecInt8 bias too short")
	}
	if !t.forks(m, matVecCost/4*int64(m)*int64(kPad)) {
		matVecInt8Rows(dst, pw, xq, bias, xScale, 0, m, int8Vector())
		return
	}
	t.rows = rowJob{kernel: matVecInt8Part, m: m, dst: dst, pq: pw, u8: xq, bias: bias, scale: xScale}
	t.forRows(gemmMR)
}

func matVecInt8Part(j *rowJob, r0, r1 int) {
	matVecInt8Rows(j.dst, j.pq, j.u8, j.bias, j.scale, r0, r1, int8Vector())
}

func matVecInt8Rows(dst []float32, pw *PackedInt8, xq []uint8, bias []float32, xScale float32, r0, r1 int, vec bool) {
	kPad := pw.kPad
	for i := r0; i < r1; i++ {
		row := pw.wq[i*kPad : i*kPad+kPad]
		var s int32
		if vec {
			s = dotInt8Kernel(row, xq, kPad)
		} else {
			for l, wv := range row {
				s += int32(wv) * int32(xq[l])
			}
		}
		v := float32(float32(s-pw.comp[i]) * pw.scales[i] * xScale) // rounded before the add, as in gemmInt8Rows
		if bias != nil {
			v += bias[i]
		}
		dst[i] = v
	}
}
