package weights_test

import (
	"testing"

	"tango/internal/networks"
	"tango/internal/tensor"
	"tango/internal/weights"
)

func TestSynthesizeCoversAllSpecs(t *testing.T) {
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := weights.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := n.WeightSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		got, err := ws.Get(s.Layer, s.Param, s.Count)
		if err != nil {
			t.Errorf("missing parameter %s: %v", s.Key(), err)
			continue
		}
		if got.Len() != s.Count {
			t.Errorf("parameter %s has %d elements, want %d", s.Key(), got.Len(), s.Count)
		}
	}
	if len(ws.Keys()) != len(specs) {
		t.Errorf("set has %d keys, want %d", len(ws.Keys()), len(specs))
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	a, err := weights.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := weights.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := a.Get("conv1", "weights", 32*3*5*5)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b.Get("conv1", "weights", 32*3*5*5)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ApproxEqual(w1, w2, 0) {
		t.Error("synthesized weights must be deterministic")
	}
}

func TestSynthesizedVariancesPositive(t *testing.T) {
	n, err := networks.NewResNet50()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := weights.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ws.Get("bn_conv1", "variance", 64)
	if err != nil {
		t.Fatal(err)
	}
	if v.Min() <= 0 {
		t.Errorf("variance parameters must be positive, min %v", v.Min())
	}
	g, err := ws.Get("scale_conv1", "gamma", 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Min() <= 0 {
		t.Errorf("gamma parameters should be positive, min %v", g.Min())
	}
}

func TestGetErrors(t *testing.T) {
	s := weights.NewSet("X")
	if _, err := s.Get("a", "weights", 4); err == nil {
		t.Error("missing parameter should fail")
	}
	s.Put("a", "weights", tensor.New(3))
	if _, err := s.Get("a", "weights", 4); err == nil {
		t.Error("element count mismatch should fail")
	}
	if _, err := s.Get("a", "weights", 3); err != nil {
		t.Errorf("matching get failed: %v", err)
	}
	if s.Network() != "X" {
		t.Errorf("Network() = %q", s.Network())
	}
}

func TestTotalBytes(t *testing.T) {
	s := weights.NewSet("X")
	s.Put("a", "weights", tensor.New(10))
	s.Put("a", "bias", tensor.New(5))
	if s.TotalBytes() != 60 {
		t.Errorf("TotalBytes = %d, want 60", s.TotalBytes())
	}
}

func TestSynthesizeLayerNamesWithSlashes(t *testing.T) {
	// SqueezeNet layer names contain slashes; the layer/param key must keep
	// them retrievable.
	n, err := networks.NewSqueezeNet()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := weights.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Get("fire2/squeeze1x1", "weights", 16*96); err != nil {
		t.Errorf("slash-named layer not retrievable: %v", err)
	}
}
