// Package resilience is the fault-tolerance substrate of the suite: a
// deterministic fault-injection registry for chaos testing, bounded
// retry with capped exponential backoff, a circuit breaker, and context
// deadline-budget helpers.
//
// # Fault injection
//
// Code under test declares named injection points with Register and calls
// Fire (or FireLabeled) at the matching site.  With no plan enabled — the
// default — Fire is a single atomic load returning nil, cheap enough for
// hot paths.  A plan enabled via Enable (or EnableFromEnv, reading
// TANGO_FAULTS / TANGO_FAULT_SEED) attaches rules to points:
//
//	serve.batch.run=panic:0.02;serve.batch.run=latency:0.2:2ms;target.run=error:1:only=CifarNet
//
// Each rule is point=mode:rate followed by optional colon-separated
// arguments.  Modes are "error" (Fire returns a wrapped ErrInjected),
// "panic" (Fire panics — the caller's isolation is what is under test)
// and "latency" (Fire sleeps, then keeps evaluating later rules).  rate
// is the per-call firing probability in [0, 1]; decisions are derived
// from the plan seed and a per-rule call counter, never from the global
// RNG or the clock, so a chaos run replays identically for a given seed.
// A "latency" rule takes a duration argument ("2ms"); any rule may take
// "only=<substring>", restricting it to Fire calls whose label contains
// the substring (e.g. one sweep cell).
package resilience

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so callers
// and chaos harnesses can tell deliberate faults from organic ones with
// errors.Is.
var ErrInjected = errors.New("resilience: injected fault")

// Point names one fault-injection site.
type Point string

// PointInfo describes a registered injection point.
type PointInfo struct {
	Point       Point
	Description string
}

var (
	regMu      sync.Mutex
	registered = map[Point]string{}
)

// Register declares an injection point (typically from a package init or
// var initializer) and returns it, so call sites keep a typed handle.
// Re-registering a point overwrites its description.
func Register(p Point, description string) Point {
	regMu.Lock()
	registered[p] = description
	regMu.Unlock()
	return p
}

// Points lists the registered injection points in name order.
func Points() []PointInfo {
	regMu.Lock()
	out := make([]PointInfo, 0, len(registered))
	for p, d := range registered {
		out = append(out, PointInfo{Point: p, Description: d})
	}
	regMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// mode is what a firing rule does.
type mode int

const (
	modeError mode = iota
	modePanic
	modeLatency
)

func (m mode) String() string {
	switch m {
	case modeError:
		return "error"
	case modePanic:
		return "panic"
	case modeLatency:
		return "latency"
	}
	return "unknown"
}

// rule is one parsed injection rule.  calls is the per-rule deterministic
// decision counter.
type rule struct {
	point Point
	mode  mode
	rate  float64
	delay time.Duration
	only  string
	id    uint64
	calls atomic.Uint64
}

// plan is an enabled fault-injection configuration.
type plan struct {
	seed  uint64
	spec  string
	rules map[Point][]*rule
}

var active atomic.Pointer[plan]

// Enabled reports whether a fault-injection plan is active.
func Enabled() bool { return active.Load() != nil }

// Spec returns the active plan's spec string ("" when disabled).
func Spec() string {
	if pl := active.Load(); pl != nil {
		return pl.spec
	}
	return ""
}

// Enable parses a fault spec and installs it as the active plan.  Rules
// must name registered points; an unknown point is an error so chaos
// configurations fail loudly instead of silently injecting nothing.
func Enable(spec string, seed uint64) error {
	pl, err := parsePlan(spec, seed)
	if err != nil {
		return err
	}
	active.Store(pl)
	return nil
}

// Disable removes the active plan; Fire becomes a no-op again.
func Disable() { active.Store(nil) }

// EnvSpec and EnvSeed are the environment variables EnableFromEnv reads.
const (
	EnvSpec = "TANGO_FAULTS"
	EnvSeed = "TANGO_FAULT_SEED"
)

// EnableFromEnv installs the plan described by TANGO_FAULTS (seeded by
// TANGO_FAULT_SEED, default 1).  It reports whether a plan was enabled;
// an unset or empty TANGO_FAULTS leaves injection disabled.
func EnableFromEnv() (bool, error) {
	spec := strings.TrimSpace(os.Getenv(EnvSpec))
	if spec == "" {
		return false, nil
	}
	seed := uint64(1)
	if s := strings.TrimSpace(os.Getenv(EnvSeed)); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return false, fmt.Errorf("resilience: %s=%q: %v", EnvSeed, s, err)
		}
		seed = n
	}
	if err := Enable(spec, seed); err != nil {
		return false, err
	}
	return true, nil
}

// parsePlan parses "point=mode:rate[:dur][:only=substr][;...]".  Entries
// are separated by ';' or ','.
func parsePlan(spec string, seed uint64) (*plan, error) {
	pl := &plan{seed: seed, spec: spec, rules: map[Point][]*rule{}}
	var id uint64
	for _, ent := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, conf, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("resilience: rule %q: want point=mode:rate[...]", ent)
		}
		p := Point(strings.TrimSpace(name))
		regMu.Lock()
		_, known := registered[p]
		regMu.Unlock()
		if !known {
			return nil, fmt.Errorf("resilience: rule %q names unregistered point %q (known: %v)", ent, p, pointNames())
		}
		parts := strings.Split(conf, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("resilience: rule %q: want point=mode:rate[...]", ent)
		}
		r := &rule{point: p, id: id}
		id++
		switch strings.TrimSpace(parts[0]) {
		case "error":
			r.mode = modeError
		case "panic":
			r.mode = modePanic
		case "latency":
			r.mode = modeLatency
		default:
			return nil, fmt.Errorf("resilience: rule %q: unknown mode %q (want error, panic or latency)", ent, parts[0])
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || !(rate >= 0 && rate <= 1) { // NaN fails both comparisons
			return nil, fmt.Errorf("resilience: rule %q: rate %q must be in [0, 1]", ent, parts[1])
		}
		r.rate = rate
		for _, arg := range parts[2:] {
			arg = strings.TrimSpace(arg)
			switch {
			case strings.HasPrefix(arg, "only="):
				r.only = strings.TrimPrefix(arg, "only=")
			default:
				d, err := time.ParseDuration(arg)
				if err != nil {
					return nil, fmt.Errorf("resilience: rule %q: argument %q is neither a duration nor only=", ent, arg)
				}
				r.delay = d
			}
		}
		if r.mode == modeLatency && r.delay <= 0 {
			return nil, fmt.Errorf("resilience: rule %q: latency mode needs a positive duration argument", ent)
		}
		pl.rules[p] = append(pl.rules[p], r)
	}
	if len(pl.rules) == 0 {
		return nil, fmt.Errorf("resilience: fault spec %q contains no rules", spec)
	}
	return pl, nil
}

func pointNames() []string {
	var names []string
	for _, pi := range Points() {
		names = append(names, string(pi.Point))
	}
	return names
}

// Fire evaluates the active plan at an injection point.  It returns nil
// when injection is disabled or no rule fires; it returns a wrapped
// ErrInjected for an "error" rule, panics for a "panic" rule, and sleeps
// (then continues to later rules) for a "latency" rule.
func Fire(p Point) error { return FireLabeled(p, "") }

// FireLabeled is Fire with a site-specific label (e.g. the sweep cell
// "CifarNet/gp102/default") that rules can match with only=.
func FireLabeled(p Point, label string) error {
	pl := active.Load()
	if pl == nil {
		return nil
	}
	rules := pl.rules[p]
	if len(rules) == 0 {
		return nil
	}
	for _, r := range rules {
		if r.only != "" && !strings.Contains(label, r.only) {
			continue
		}
		n := r.calls.Add(1)
		if r.rate < 1 && !decide(pl.seed, r.id, n, r.rate) {
			continue
		}
		switch r.mode {
		case modeLatency:
			time.Sleep(r.delay)
		case modeError:
			if label != "" {
				return fmt.Errorf("%w: %s at %s (%s)", ErrInjected, modeError, p, label)
			}
			return fmt.Errorf("%w: %s at %s", ErrInjected, modeError, p)
		case modePanic:
			panic(fmt.Sprintf("resilience: injected panic at %s", p))
		}
	}
	return nil
}

// decide maps (seed, rule, call-ordinal) onto a uniform draw in [0, 1)
// via splitmix64, so a plan's firing pattern is a pure function of its
// seed and each rule's call sequence — reproducible run to run.
func decide(seed, ruleID, call uint64, rate float64) bool {
	x := splitmix64(seed ^ (ruleID+1)*0x9e3779b97f4a7c15 ^ call*0xbf58476d1ce4e5b9)
	return float64(x>>11)/float64(1<<53) < rate
}

// splitmix64 is the standard 64-bit finalizing mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
