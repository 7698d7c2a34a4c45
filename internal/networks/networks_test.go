package networks_test

import (
	"strings"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

func TestNamesCoverRegistry(t *testing.T) {
	names := networks.Names()
	if len(names) != 7 {
		t.Fatalf("suite should have 7 benchmarks, got %d: %v", len(names), names)
	}
	for _, name := range names {
		n, err := networks.New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if n.Name != name {
			t.Errorf("New(%q).Name = %q", name, n.Name)
		}
		if !n.Built() {
			t.Errorf("%s should be built by its constructor", name)
		}
	}
	if len(networks.CNNNames())+len(networks.RNNNames()) != len(names) {
		t.Error("CNN + RNN names should partition the suite")
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := networks.New("NoSuchNet"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestAll(t *testing.T) {
	nets, err := networks.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 7 {
		t.Fatalf("All() returned %d networks", len(nets))
	}
}

func TestKindStrings(t *testing.T) {
	if networks.KindCNN.String() != "CNN" || networks.KindRNN.String() != "RNN" {
		t.Error("unexpected kind names")
	}
}

func TestLayerTypeStrings(t *testing.T) {
	if networks.LayerConv.String() != "conv" || networks.LayerLSTM.String() != "lstm" {
		t.Error("unexpected layer type names")
	}
}

func TestCifarNetStructure(t *testing.T) {
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: three convolutional layers and two fully-connected layers.
	convs, fcs := 0, 0
	for _, l := range n.Layers {
		switch l.Type {
		case networks.LayerConv:
			convs++
		case networks.LayerFC:
			fcs++
		}
	}
	if convs != 3 || fcs != 2 {
		t.Errorf("CifarNet has %d conv and %d fc layers, want 3 and 2", convs, fcs)
	}
	if n.NumClasses != 9 {
		t.Errorf("CifarNet classes = %d, want 9 (traffic signals)", n.NumClasses)
	}
	final := n.Layers[len(n.Layers)-1]
	if got := final.OutShape; len(got) != 1 || got[0] != 9 {
		t.Errorf("CifarNet output shape %v, want [9]", got)
	}
}

func TestAlexNetStructure(t *testing.T) {
	n, err := networks.NewAlexNet()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: five convolutional layers and three fully-connected layers.
	convs, fcs, norms := 0, 0, 0
	for _, l := range n.Layers {
		switch l.Type {
		case networks.LayerConv:
			convs++
		case networks.LayerFC:
			fcs++
		case networks.LayerLRN:
			norms++
		}
	}
	if convs != 5 || fcs != 3 || norms != 2 {
		t.Errorf("AlexNet has %d conv, %d fc, %d norm layers; want 5, 3, 2", convs, fcs, norms)
	}
	// Reference feature map sizes.
	cases := map[string][]int{
		"conv1": {96, 55, 55},
		"pool1": {96, 27, 27},
		"conv2": {256, 27, 27},
		"pool2": {256, 13, 13},
		"conv5": {256, 13, 13},
		"pool5": {256, 6, 6},
		"fc8":   {1000},
	}
	for name, want := range cases {
		l := n.Layer(name)
		if l == nil {
			t.Errorf("AlexNet missing layer %q", name)
			continue
		}
		if !shapeEq(l.OutShape, want) {
			t.Errorf("AlexNet %s output %v, want %v", name, l.OutShape, want)
		}
	}
}

func TestSqueezeNetStructure(t *testing.T) {
	n, err := networks.NewSqueezeNet()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: two convolutional layers, eight fire modules, one global pool.
	fires := map[string]bool{}
	plainConvs := 0
	globalPools := 0
	for _, l := range n.Layers {
		if strings.HasPrefix(l.Name, "fire") {
			fires[strings.SplitN(l.Name, "/", 2)[0]] = true
			continue
		}
		switch l.Type {
		case networks.LayerConv:
			plainConvs++
		case networks.LayerGlobalPool:
			globalPools++
		}
	}
	if len(fires) != 8 {
		t.Errorf("SqueezeNet has %d fire modules, want 8", len(fires))
	}
	if plainConvs != 2 {
		t.Errorf("SqueezeNet has %d plain conv layers, want 2 (conv1, conv10)", plainConvs)
	}
	if globalPools != 1 {
		t.Errorf("SqueezeNet has %d global pooling layers, want 1", globalPools)
	}
	cases := map[string][]int{
		"conv1":        {96, 111, 111},
		"pool1":        {96, 55, 55},
		"fire2/concat": {128, 55, 55},
		"fire4/concat": {256, 55, 55},
		"pool4":        {256, 27, 27},
		"fire8/concat": {512, 27, 27},
		"pool8":        {512, 13, 13},
		"fire9/concat": {512, 13, 13},
		"conv10":       {1000, 13, 13},
		"pool10":       {1000},
	}
	for name, want := range cases {
		l := n.Layer(name)
		if l == nil {
			t.Errorf("SqueezeNet missing layer %q", name)
			continue
		}
		if !shapeEq(l.OutShape, want) {
			t.Errorf("SqueezeNet %s output %v, want %v", name, l.OutShape, want)
		}
	}
	// Fire squeeze/expand layers must be classified for the figures.
	if n.Layer("fire2/squeeze1x1").EffectiveClass() != networks.ClassFireSqueeze {
		t.Error("fire squeeze layers must carry the Fire_Squeeze class")
	}
	if n.Layer("fire2/expand3x3").EffectiveClass() != networks.ClassFireExpand {
		t.Error("fire expand layers must carry the Fire_Expand class")
	}
}

func TestResNet50Structure(t *testing.T) {
	n, err := networks.NewResNet50()
	if err != nil {
		t.Fatal(err)
	}
	convs, fcs, eltwise, relus := 0, 0, 0, 0
	projections := 0
	for _, l := range n.Layers {
		switch l.Type {
		case networks.LayerConv:
			convs++
			if strings.Contains(l.Name, "branch1") {
				projections++
			}
		case networks.LayerFC:
			fcs++
		case networks.LayerEltwise:
			eltwise++
		case networks.LayerReLU:
			relus++
		}
	}
	// Paper: "ResNet uses 49 convolution layers and one fully-connected
	// layer"; the Caffe model adds 4 projection shortcuts, giving 53 conv
	// kernels in total.
	if convs-projections != 49 {
		t.Errorf("ResNet main-path conv layers = %d, want 49", convs-projections)
	}
	if projections != 4 {
		t.Errorf("ResNet projection shortcuts = %d, want 4", projections)
	}
	if fcs != 1 {
		t.Errorf("ResNet fc layers = %d, want 1", fcs)
	}
	if eltwise != 16 {
		t.Errorf("ResNet eltwise layers = %d, want 16 (one per bottleneck)", eltwise)
	}
	if relus == 0 {
		t.Error("ResNet should expose standalone ReLU layers")
	}
	cases := map[string][]int{
		"conv1":  {64, 112, 112},
		"pool1":  {64, 56, 56},
		"res2c":  {256, 56, 56},
		"res3d":  {512, 28, 28},
		"res4f":  {1024, 14, 14},
		"res5c":  {2048, 7, 7},
		"pool5":  {2048},
		"fc1000": {1000},
	}
	for name, want := range cases {
		l := n.Layer(name)
		if l == nil {
			t.Errorf("ResNet missing layer %q", name)
			continue
		}
		if !shapeEq(l.OutShape, want) {
			t.Errorf("ResNet %s output %v, want %v", name, l.OutShape, want)
		}
	}
}

func TestVGGNetStructure(t *testing.T) {
	n, err := networks.NewVGGNet()
	if err != nil {
		t.Fatal(err)
	}
	convs, fcs, pools := 0, 0, 0
	for _, l := range n.Layers {
		switch l.Type {
		case networks.LayerConv:
			convs++
			if l.Conv.KernelH != 3 || l.Conv.KernelW != 3 {
				t.Errorf("VGG conv %s kernel %dx%d, want 3x3", l.Name, l.Conv.KernelH, l.Conv.KernelW)
			}
		case networks.LayerFC:
			fcs++
		case networks.LayerPool:
			pools++
		}
	}
	// Paper: 13 convolution, 3 fully-connected, 5 pooling layers.
	if convs != 13 || fcs != 3 || pools != 5 {
		t.Errorf("VGGNet has %d conv, %d fc, %d pool; want 13, 3, 5", convs, fcs, pools)
	}
	cases := map[string][]int{
		"conv1_2": {64, 224, 224},
		"pool1":   {64, 112, 112},
		"conv3_3": {256, 56, 56},
		"pool5":   {512, 7, 7},
		"fc6":     {4096},
		"fc8":     {1000},
	}
	for name, want := range cases {
		l := n.Layer(name)
		if l == nil {
			t.Errorf("VGGNet missing layer %q", name)
			continue
		}
		if !shapeEq(l.OutShape, want) {
			t.Errorf("VGGNet %s output %v, want %v", name, l.OutShape, want)
		}
	}
}

func TestRNNStructures(t *testing.T) {
	for _, name := range networks.RNNNames() {
		n, err := networks.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.Kind != networks.KindRNN {
			t.Errorf("%s kind = %v, want RNN", name, n.Kind)
		}
		if n.SeqLen != 2 {
			t.Errorf("%s sequence length = %d, want 2 (past two days' prices)", name, n.SeqLen)
		}
		rec := n.Layers[0]
		if rec.Hidden != 100 {
			t.Errorf("%s hidden size = %d, want 100 (Table III: 100 threads)", name, rec.Hidden)
		}
		out := n.Layers[len(n.Layers)-1]
		if out.Type != networks.LayerFC || out.FCOut != 1 {
			t.Errorf("%s should end with a 1-output regression head", name)
		}
	}
}

func TestWeightSpecsAndBytes(t *testing.T) {
	// AlexNet parameter count is ~61M (60,965,224 in the reference model with
	// grouped convolutions); verify we land on the exact reference number.
	n, err := networks.NewAlexNet()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := n.WeightSpecs()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range specs {
		if s.Count <= 0 {
			t.Errorf("parameter %s has non-positive count %d", s.Key(), s.Count)
		}
		total += s.Count
	}
	if total != 60965224 {
		t.Errorf("AlexNet parameter count = %d, want 60965224", total)
	}
	wb, err := n.WeightBytes()
	if err != nil {
		t.Fatal(err)
	}
	if wb != int64(total)*4 {
		t.Errorf("WeightBytes = %d, want %d", wb, int64(total)*4)
	}
}

func TestRNNFootprintSmall(t *testing.T) {
	// Paper Observation 9 / Figure 11: GRU and LSTM use well under 500 KB.
	for _, name := range networks.RNNNames() {
		n, err := networks.New(name)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := n.WeightBytes()
		if err != nil {
			t.Fatal(err)
		}
		ab, err := n.ActivationBytes()
		if err != nil {
			t.Fatal(err)
		}
		if wb+ab >= 500*1024 {
			t.Errorf("%s footprint %d bytes, want < 500KB", name, wb+ab)
		}
	}
}

func TestCNNFootprintLarge(t *testing.T) {
	// Paper Observation 9: most CNNs use at least 1 MB.
	for _, name := range []string{"AlexNet", "SqueezeNet", "ResNet", "VGGNet"} {
		n, err := networks.New(name)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := n.WeightBytes()
		if err != nil {
			t.Fatal(err)
		}
		ab, err := n.ActivationBytes()
		if err != nil {
			t.Fatal(err)
		}
		if wb+ab < 1<<20 {
			t.Errorf("%s footprint %d bytes, want >= 1MB", name, wb+ab)
		}
	}
}

func TestBuildRejectsBadGraphs(t *testing.T) {
	cases := []*networks.Network{
		// No input shape.
		{Name: "bad", Layers: []networks.Layer{{Name: "x", Type: networks.LayerReLU, Inputs: []int{networks.InputRef}}}},
		// Unnamed layer.
		{Name: "bad", InputShape: []int{1, 4, 4}, Layers: []networks.Layer{{Type: networks.LayerReLU, Inputs: []int{networks.InputRef}}}},
		// Duplicate names.
		{Name: "bad", InputShape: []int{1, 4, 4}, Layers: []networks.Layer{
			{Name: "a", Type: networks.LayerReLU, Inputs: []int{networks.InputRef}},
			{Name: "a", Type: networks.LayerReLU, Inputs: []int{0}},
		}},
		// Forward reference.
		{Name: "bad", InputShape: []int{1, 4, 4}, Layers: []networks.Layer{
			{Name: "a", Type: networks.LayerReLU, Inputs: []int{1}},
			{Name: "b", Type: networks.LayerReLU, Inputs: []int{networks.InputRef}},
		}},
		// Conv channel mismatch.
		{Name: "bad", InputShape: []int{3, 8, 8}, Layers: []networks.Layer{
			{Name: "c", Type: networks.LayerConv, Inputs: []int{networks.InputRef}, Conv: nn.ConvParams{
				InChannels: 4, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}},
		}},
		// Eltwise with one input.
		{Name: "bad", InputShape: []int{3, 8, 8}, Layers: []networks.Layer{
			{Name: "e", Type: networks.LayerEltwise, Inputs: []int{networks.InputRef}},
		}},
		// FC without output size.
		{Name: "bad", InputShape: []int{3, 8, 8}, Layers: []networks.Layer{
			{Name: "f", Type: networks.LayerFC, Inputs: []int{networks.InputRef}},
		}},
		// Layer with no inputs.
		{Name: "bad", InputShape: []int{3, 8, 8}, Layers: []networks.Layer{
			{Name: "r", Type: networks.LayerReLU},
		}},
	}
	for i, n := range cases {
		if err := n.Build(); err == nil {
			t.Errorf("case %d: Build should have failed", i)
		}
	}
}

func TestRunCifarNetEndToEnd(t *testing.T) {
	p := buildPlan(t, "CifarNet")
	input := cnnInput(p, 99)
	res, err := p.Run(input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 9 {
		t.Fatalf("CifarNet output length %d, want 9", res.Output.Len())
	}
	// Softmax output: a probability distribution.
	sum := res.Output.Sum()
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("CifarNet softmax output sums to %v, want 1", sum)
	}
	if res.PredictedClass < 0 || res.PredictedClass > 8 {
		t.Errorf("predicted class %d out of range", res.PredictedClass)
	}
	if want := len(p.Network().Layers); len(res.LayerOutputs) != want {
		t.Errorf("LayerOutputs has %d entries, want %d", len(res.LayerOutputs), want)
	}
	// Determinism: the same input and weights give the same prediction.
	res2, err := p.Run(input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ApproxEqual(res.Output, res2.Output, 0) {
		t.Error("inference must be deterministic")
	}
}

func TestRunRejectsWrongUsage(t *testing.T) {
	cifar := buildPlan(t, "CifarNet")
	if _, err := cifar.Run(tensor.New(3, 16, 16), nil); err == nil {
		t.Error("wrong input shape should fail")
	}
	if _, err := cifar.Run(nil, nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := cifar.RunSequence([]*tensor.Tensor{tensor.New(1)}, nil); err == nil {
		t.Error("RunSequence on a CNN should fail")
	}

	gru := buildPlan(t, "GRU")
	if _, err := gru.Run(tensor.New(1), nil); err == nil {
		t.Error("Run on an RNN should fail")
	}
	if _, err := gru.RunSequence(nil, nil); err == nil {
		t.Error("empty sequence should fail")
	}
	if _, err := gru.RunSequence([]*tensor.Tensor{tensor.New(3)}, nil); err == nil {
		t.Error("wrong feature count should fail")
	}
}

func TestRunRNNEndToEnd(t *testing.T) {
	for _, name := range networks.RNNNames() {
		p := buildPlan(t, name)
		// Two normalized "bitcoin prices".
		day1 := tensor.New(1)
		day1.Fill(0.42)
		day2 := tensor.New(1)
		day2.Fill(0.45)
		res, err := p.RunSequence([]*tensor.Tensor{day1, day2}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Output.Len() != 1 {
			t.Errorf("%s output length %d, want 1", name, res.Output.Len())
		}
		if res.PredictedClass != -1 {
			t.Errorf("%s is a regressor; PredictedClass should be -1", name)
		}
		// The prediction must depend on the input sequence.
		day2b := tensor.New(1)
		day2b.Fill(0.9)
		res2, err := p.RunSequence([]*tensor.Tensor{day1, day2b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output.Data()[0] == res2.Output.Data()[0] {
			t.Errorf("%s prediction should change with the input sequence", name)
		}
	}
}

func TestEffectiveClassDefaults(t *testing.T) {
	cases := map[networks.LayerType]string{
		networks.LayerConv:       networks.ClassConv,
		networks.LayerPool:       networks.ClassPooling,
		networks.LayerGlobalPool: networks.ClassPooling,
		networks.LayerFC:         networks.ClassFC,
		networks.LayerLRN:        networks.ClassNorm,
		networks.LayerBatchNorm:  networks.ClassBatchNorm,
		networks.LayerScale:      networks.ClassScale,
		networks.LayerReLU:       networks.ClassReLU,
		networks.LayerEltwise:    networks.ClassEltwise,
		networks.LayerLSTM:       networks.ClassRNN,
		networks.LayerGRU:        networks.ClassRNN,
		networks.LayerSoftmax:    networks.ClassOther,
		networks.LayerConcat:     networks.ClassOther,
	}
	for lt, want := range cases {
		l := networks.Layer{Type: lt}
		if got := l.EffectiveClass(); got != want {
			t.Errorf("EffectiveClass(%v) = %q, want %q", lt, got, want)
		}
	}
	override := networks.Layer{Type: networks.LayerConv, Class: networks.ClassFireExpand}
	if override.EffectiveClass() != networks.ClassFireExpand {
		t.Error("explicit class should win")
	}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
