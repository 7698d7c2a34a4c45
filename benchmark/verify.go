package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"tango"
	"tango/internal/core"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// The inputs every workload draws from are fixed pools generated by this
// package's own generator (never by the program under test); --seed selects
// and orders pool entries.  expected.json pins, per pool entry, the output
// the direct reference kernels (nn.Scratch.SetDirect) produce for it, so a
// run verifies against an independent implementation without paying for it
// at run time.
const (
	alexPool  = 16
	cifarPool = 64
	lstmPool  = 64
	lstmSteps = 2 // the suite's RNNs read two days of prices (networks.rnnSeqLen)
)

var (
	alexShape  = []int{3, 227, 227}
	cifarShape = []int{3, 32, 32}
)

// Relative-error bounds the fast and int8 tiers document against the
// reference tier (internal/networks/fastnum_test.go), with top-1 preserved.
const (
	tolFast = 1e-3
	tolInt8 = 0.25
)

//go:embed expected.json
var expectedJSON []byte

// expectedOutput pins one pool image's reference classification.
type expectedOutput struct {
	SHA256 string `json:"sha256"`
	Class  int    `json:"class"`
	// Probs is the little-endian float32 softmax output, base64-encoded:
	// the tolerance checks of the fast tiers need the values, not only
	// their digest.
	Probs string `json:"probs"`

	probs []float32
}

// expectedFile is the schema of expected.json.
type expectedFile struct {
	Note     string           `json:"note"`
	AlexNet  []expectedOutput `json:"alexnet"`
	CifarNet []expectedOutput `json:"cifarnet"`
	// LSTM holds the float32 bit pattern of each pool history's forecast.
	LSTM []uint32 `json:"lstm"`
	// LSTMSHA256 is the digest of all LSTM forecasts in pool order.
	LSTMSHA256 string `json:"lstm_sha256"`
	// SweepCSV is the SHA-256 of the sweep-cold dataset's CSV lines sorted
	// bytewise (the seed permutes cell order; the cells must not change).
	SweepCSV string `json:"sweep_csv_sha256"`
}

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	for _, set := range [][]expectedOutput{e.AlexNet, e.CifarNet} {
		for i := range set {
			raw, err := base64.StdEncoding.DecodeString(set[i].Probs)
			if err != nil {
				return nil, fmt.Errorf("expected.json: probs %d: %w", i, err)
			}
			set[i].probs = bytesToF32(raw)
			if got := hashBytes(raw); got != set[i].SHA256 {
				return nil, fmt.Errorf("expected.json: entry %d: probs hash %s does not match pinned %s", i, got, set[i].SHA256)
			}
		}
	}
	if len(e.AlexNet) != alexPool || len(e.CifarNet) != cifarPool || len(e.LSTM) != lstmPool {
		return nil, fmt.Errorf("expected.json: pool sizes %d/%d/%d, want %d/%d/%d (run -update-expected)",
			len(e.AlexNet), len(e.CifarNet), len(e.LSTM), alexPool, cifarPool, lstmPool)
	}
	if got := hashU32(e.LSTM); got != e.LSTMSHA256 {
		return nil, fmt.Errorf("expected.json: lstm hash %s does not match pinned %s", got, e.LSTMSHA256)
	}
	return &e, nil
}

func f32ToBytes(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func bytesToF32(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func hashBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func hashU32(xs []uint32) string {
	raw := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(raw[4*i:], x)
	}
	return hashBytes(raw)
}

// hashSortedLines digests text's lines in bytewise order, so the digest does
// not depend on the order the sweep visited its cells in.
func hashSortedLines(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	sort.Strings(lines)
	return hashBytes([]byte(strings.Join(lines, "\n")))
}

// checkExact fails unless got is bit-identical to the pinned output.
func (e *expectedOutput) checkExact(class int, got []float32) error {
	if len(got) != len(e.probs) {
		return fmt.Errorf("output has %d values, want %d", len(got), len(e.probs))
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(e.probs[i]) {
			return fmt.Errorf("output[%d] = %x, pinned %x (not bit-identical)", i, math.Float32bits(v), math.Float32bits(e.probs[i]))
		}
	}
	if class != e.Class {
		return fmt.Errorf("class %d, pinned %d", class, e.Class)
	}
	return nil
}

// checkTolerance fails unless got keeps the pinned top-1 class and stays
// within tol of the pinned output, as max|got-want| / max|want|.
func (e *expectedOutput) checkTolerance(class int, got []float32, tol float64) error {
	if len(got) != len(e.probs) {
		return fmt.Errorf("output has %d values, want %d", len(got), len(e.probs))
	}
	if class != e.Class {
		return fmt.Errorf("top-1 class %d, reference %d", class, e.Class)
	}
	var maxDiff, maxWant float64
	for i, w := range e.probs {
		maxDiff = math.Max(maxDiff, math.Abs(float64(got[i])-float64(w)))
		maxWant = math.Max(maxWant, math.Abs(float64(w)))
	}
	if re := maxDiff / maxWant; !(re <= tol) {
		return fmt.Errorf("relative error %.3g exceeds %.3g", re, tol)
	}
	return nil
}

// splitmix is the benchmark's own generator (SplitMix64): inputs and seeded
// choices never come from the program under test.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) float32() float32 { return float32(r.next()>>40) / (1 << 24) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// poolImage is pool entry id of a network's image pool: uniform [0,1) pixels.
func poolImage(netTag uint64, id int, shape []int) []float32 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	r := splitmix{state: netTag<<32 | uint64(id)}
	img := make([]float32, n)
	for i := range img {
		img[i] = r.float32()
	}
	return img
}

const (
	tagAlex  = 0xA1E7
	tagCifar = 0xC1FA
	tagLSTM  = 0x1571
)

// poolHistory is pool entry id of the price-history pool: a short normalized
// random walk, like scaled daily closing prices.
func poolHistory(id int) []float64 {
	r := splitmix{state: tagLSTM<<32 | uint64(id)}
	price := 0.4 + 0.2*r.float32()
	h := make([]float64, lstmSteps)
	for i := range h {
		price += (r.float32() - 0.5) * 0.05
		h[i] = float64(price)
	}
	return h
}

// The sweep-cold cell matrix in canonical order.
var (
	sweepNetworks = []string{"CifarNet", "AlexNet", "GRU", "LSTM"}
	sweepTargets  = []string{"gp102", "tx1", "pynq"}
)

const sweepCells = 12

// directClassify runs a CNN through the direct reference kernels.
func directClassify(b *core.Benchmark, s *nn.Scratch, shape []int, img []float32) (expectedOutput, error) {
	in, err := tensor.FromSlice(img, shape...)
	if err != nil {
		return expectedOutput{}, err
	}
	res, err := b.RunInferenceScratch(in, s)
	if err != nil {
		return expectedOutput{}, err
	}
	raw := f32ToBytes(res.Output.Data())
	return expectedOutput{
		SHA256: hashBytes(raw),
		Class:  res.PredictedClass,
		Probs:  base64.StdEncoding.EncodeToString(raw),
		probs:  bytesToF32(raw),
	}, nil
}

// buildExpected recomputes every pinned value through the direct kernels.
func buildExpected(tmpDir string) (*expectedFile, error) {
	e := &expectedFile{Note: "Pinned outputs of the direct reference kernels for the benchmark's input pools; regenerate with -update-expected."}
	s := nn.NewScratch()
	s.SetDirect(true)
	for _, set := range []struct {
		net   string
		tag   uint64
		n     int
		shape []int
		out   *[]expectedOutput
	}{
		{"AlexNet", tagAlex, alexPool, alexShape, &e.AlexNet},
		{"CifarNet", tagCifar, cifarPool, cifarShape, &e.CifarNet},
	} {
		b, err := core.Load(set.net)
		if err != nil {
			return nil, err
		}
		for id := 0; id < set.n; id++ {
			o, err := directClassify(b, s, set.shape, poolImage(set.tag, id, set.shape))
			if err != nil {
				return nil, fmt.Errorf("%s pool %d: %w", set.net, id, err)
			}
			*set.out = append(*set.out, o)
		}
	}
	lstm, err := core.Load("LSTM")
	if err != nil {
		return nil, err
	}
	for id := 0; id < lstmPool; id++ {
		var seq []*tensor.Tensor
		for _, v := range poolHistory(id) {
			x := tensor.New(1)
			x.Fill(float32(v))
			seq = append(seq, x)
		}
		res, err := lstm.RunSequenceScratch(seq, s)
		if err != nil {
			return nil, fmt.Errorf("LSTM pool %d: %w", id, err)
		}
		e.LSTM = append(e.LSTM, math.Float32bits(res.Output.Data()[0]))
	}
	e.LSTMSHA256 = hashU32(e.LSTM)

	ds, err := tango.Sweep(tango.SweepConfig{
		Networks: sweepNetworks, Targets: sweepTargets, FastSampling: true, CacheDir: tmpDir,
	})
	if err != nil {
		return nil, err
	}
	e.SweepCSV = hashSortedLines(ds.CSV())
	return e, nil
}

// updateExpected regenerates expected.json at path, prints which pinned
// values changed, and confirms the fast tiers hold their tolerance on every
// pool image (a pool image that breaks it would be a failing op).
func updateExpected(path, tmpDir string) error {
	next, err := buildExpected(tmpDir)
	if err != nil {
		return err
	}
	var prev expectedFile
	_ = json.Unmarshal(expectedJSON, &prev) // an empty or older file diffs as all-new
	changed := 0
	diffSet := func(name string, old, cur []expectedOutput) {
		for i := range cur {
			was := "(none)"
			if i < len(old) {
				was = old[i].SHA256
			}
			if was != cur[i].SHA256 {
				fmt.Printf("%s[%d]: %s -> %s\n", name, i, was, cur[i].SHA256)
				changed++
			}
		}
	}
	diffSet("alexnet", prev.AlexNet, next.AlexNet)
	diffSet("cifarnet", prev.CifarNet, next.CifarNet)
	for _, d := range [][3]string{{"lstm_sha256", prev.LSTMSHA256, next.LSTMSHA256}, {"sweep_csv_sha256", prev.SweepCSV, next.SweepCSV}} {
		if d[1] != d[2] {
			fmt.Printf("%s: %s -> %s\n", d[0], d[1], d[2])
			changed++
		}
	}
	fmt.Printf("%d pinned values changed\n", changed)

	b, err := tango.LoadBenchmark("AlexNet")
	if err != nil {
		return err
	}
	// fast single-sample and int8 batched, as the two workloads run them
	var batch [][]float32
	for id := range next.AlexNet {
		img := poolImage(tagAlex, id, alexShape)
		batch = append(batch, img)
		c, err := b.Classify(img, tango.WithFastMath())
		if err == nil {
			err = next.AlexNet[id].checkTolerance(c.Class, c.Probabilities, tolFast)
		}
		if err != nil {
			return fmt.Errorf("alexnet pool %d does not hold the fast tolerance: %w", id, err)
		}
	}
	for at := 0; at < len(batch); at += 8 {
		out, err := b.ClassifyBatch(batch[at:at+8], tango.WithInt8())
		if err != nil {
			return err
		}
		for j, c := range out {
			if err := next.AlexNet[at+j].checkTolerance(c.Class, c.Probabilities, tolInt8); err != nil {
				return fmt.Errorf("alexnet pool %d does not hold the int8 tolerance: %w", at+j, err)
			}
		}
	}
	out, err := json.MarshalIndent(next, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
