package networks

import (
	"fmt"
	"sort"
)

// Constructor builds one of the suite's networks.
type Constructor func() (*Network, error)

// registry maps canonical benchmark names to constructors.  The seven entries
// are the networks the paper's benchmark suite ships.
var registry = map[string]Constructor{
	"CifarNet":   NewCifarNet,
	"AlexNet":    NewAlexNet,
	"SqueezeNet": NewSqueezeNet,
	"ResNet":     NewResNet50,
	"VGGNet":     NewVGGNet,
	"GRU":        NewGRU,
	"LSTM":       NewLSTM,
	// Extension benchmarks beyond the paper's seven-network suite.
	"MobileNet": NewMobileNet,
}

// Names returns the benchmark names in the order the paper lists them:
// the two RNNs first in Table III, but the canonical suite ordering used in
// the figures is CNNs by size followed by RNNs.
func Names() []string {
	return []string{"GRU", "LSTM", "CifarNet", "AlexNet", "SqueezeNet", "ResNet", "VGGNet"}
}

// RNNNames returns only the recurrent benchmarks.
func RNNNames() []string {
	return []string{"GRU", "LSTM"}
}

// ExtensionNames returns benchmarks provided beyond the paper's suite (the
// paper lists MobileNet as the next network under development).  They are
// loadable by name but excluded from the figure-reproduction set.
func ExtensionNames() []string {
	return []string{"MobileNet"}
}

// New constructs a network by name.
func New(name string) (*Network, error) {
	c, ok := registry[name]
	if !ok {
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("networks: unknown benchmark %q (known: %v)", name, known)
	}
	return c()
}

// All constructs every network in the suite, in Names() order.
func All() ([]*Network, error) {
	nets := make([]*Network, 0, len(registry))
	for _, name := range Names() {
		n, err := New(name)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	return nets, nil
}
