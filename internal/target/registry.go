package target

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tango/internal/device"
	"tango/internal/fpga"
)

// Registry is a named collection of targets with case-insensitive aliases.
// Adding a device to the characterization pipeline is one Register call: every
// figure, sweep and command-line flag resolves targets through the registry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Target // canonical names and aliases, lowercased
	order  []string          // canonical names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Target)}
}

// Register adds a target under its canonical name plus any aliases.
// Names are case-insensitive; re-registering a taken name is an error.
func (r *Registry) Register(t Target, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string{t.Name()}, aliases...)
	for _, n := range names {
		key := strings.ToLower(strings.TrimSpace(n))
		if key == "" {
			return fmt.Errorf("target: empty name registering %q", t.Name())
		}
		if _, taken := r.byName[key]; taken {
			return fmt.Errorf("target: name %q already registered", key)
		}
	}
	for _, n := range names {
		r.byName[strings.ToLower(strings.TrimSpace(n))] = t
	}
	r.order = append(r.order, t.Name())
	return nil
}

// Lookup resolves a target by canonical name or alias, case-insensitively.
func (r *Registry) Lookup(name string) (Target, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("target: unknown target %q (known: %s)",
			name, strings.Join(r.order, ", "))
	}
	return t, nil
}

// Names returns the canonical target names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Targets returns the registered targets in registration order.
func (r *Registry) Targets() []Target {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Target, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[strings.ToLower(n)])
	}
	return out
}

// Aliases returns the sorted aliases of one canonical target name.
func (r *Registry) Aliases(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[strings.ToLower(name)]
	if !ok {
		return nil
	}
	var out []string
	for alias, tgt := range r.byName {
		if tgt == t && alias != strings.ToLower(t.Name()) {
			out = append(out, alias)
		}
	}
	sort.Strings(out)
	return out
}

// builtinOnce guards the lazily constructed builtin registry.
var (
	builtinOnce sync.Once
	builtin     *Registry
)

// Builtin returns the registry of the paper's evaluation platforms: the
// Pascal GP102 simulator configuration, the Kepler GK210 server GPU, the
// Tegra X1 edge GPU and the PynQ-Z1 embedded FPGA.
func Builtin() *Registry {
	builtinOnce.Do(func() {
		builtin = NewRegistry()
		mustRegister := func(t Target, err error, aliases ...string) {
			if err != nil {
				panic(err)
			}
			if err := builtin.Register(t, aliases...); err != nil {
				panic(err)
			}
		}
		mustRegister(NewGPU("gp102", device.PascalGP102()), nil, "pascal", "simulator")
		mustRegister(NewGPU("gk210", device.GK210()), nil, "k80", "server")
		mustRegister(NewGPU("tx1", device.TX1()), nil, "tegra", "mobile", "edge")
		pynq, err := NewFPGA("pynq", fpga.DefaultConfig())
		mustRegister(pynq, err, "fpga", "pynq-z1")
	})
	return builtin
}
