package resilience

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// testPoint registers a throwaway injection point for one test and
// removes the active plan afterward.
func testPoint(t *testing.T, name string) Point {
	t.Helper()
	p := Register(Point(name), "test point")
	t.Cleanup(func() {
		Disable()
		regMu.Lock()
		delete(registered, p)
		regMu.Unlock()
	})
	return p
}

func TestFireDisabledIsNoop(t *testing.T) {
	p := testPoint(t, "test.noop")
	Disable()
	if err := Fire(p); err != nil {
		t.Fatalf("Fire with no plan = %v, want nil", err)
	}
	if Enabled() {
		t.Fatal("Enabled() with no plan")
	}
}

func TestInjectedErrorRate(t *testing.T) {
	p := testPoint(t, "test.err")
	if err := Enable(string(p)+"=error:0.25", 42); err != nil {
		t.Fatal(err)
	}
	fired := 0
	const calls = 4000
	for i := 0; i < calls; i++ {
		if err := Fire(p); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
			fired++
		}
	}
	// Deterministic draw: the exact count is a pure function of the seed,
	// but assert only a generous band so the hash can be re-derived.
	if fired < calls/8 || fired > calls/2 {
		t.Fatalf("rate 0.25 fired %d/%d times", fired, calls)
	}
}

func TestInjectionDeterministicAcrossRuns(t *testing.T) {
	p := testPoint(t, "test.det")
	run := func() []bool {
		if err := Enable(string(p)+"=error:0.5", 7); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 256)
		for i := range out {
			out[i] = Fire(p) != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically-seeded runs", i)
		}
	}
}

func TestInjectedPanicAndRateOne(t *testing.T) {
	p := testPoint(t, "test.panic")
	if err := Enable(string(p)+"=panic:1", 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("rate-1 panic rule did not panic")
		}
	}()
	_ = Fire(p)
}

func TestInjectedLatencyComposesWithError(t *testing.T) {
	p := testPoint(t, "test.lat")
	if err := Enable(string(p)+"=latency:1:20ms;"+string(p)+"=error:1", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := Fire(p)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("latency rule slept only %v", elapsed)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error rule after latency rule = %v", err)
	}
}

func TestOnlyLabelMatch(t *testing.T) {
	p := testPoint(t, "test.only")
	if err := Enable(string(p)+"=error:1:only=CifarNet", 1); err != nil {
		t.Fatal(err)
	}
	if err := FireLabeled(p, "GRU/gp102/default"); err != nil {
		t.Fatalf("non-matching label fired: %v", err)
	}
	if err := FireLabeled(p, "CifarNet/gp102/default"); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching label did not fire: %v", err)
	}
	if !strings.Contains(Spec(), "only=CifarNet") {
		t.Fatalf("Spec() = %q", Spec())
	}
}

func TestEnableRejectsBadSpecs(t *testing.T) {
	p := testPoint(t, "test.bad")
	for _, spec := range []string{
		"nonsense",
		"unknown.point=error:1",
		string(p) + "=explode:1",
		string(p) + "=error:1.5",
		string(p) + "=error:NaN",        // a rule that could never fire
		string(p) + "=latency:1",        // missing duration
		string(p) + "=error:1:bogusarg", // not a duration, not only=
		"",
	} {
		if err := Enable(spec, 1); err == nil {
			t.Errorf("Enable(%q) accepted", spec)
		}
	}
}

func TestEnableFromEnv(t *testing.T) {
	p := testPoint(t, "test.env")
	t.Setenv(EnvSpec, string(p)+"=error:1")
	t.Setenv(EnvSeed, "9")
	on, err := EnableFromEnv()
	if err != nil || !on {
		t.Fatalf("EnableFromEnv = %v, %v", on, err)
	}
	if err := Fire(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("env-enabled rule did not fire: %v", err)
	}

	Disable()
	t.Setenv(EnvSpec, "")
	on, err = EnableFromEnv()
	if err != nil || on {
		t.Fatalf("empty %s enabled injection: %v, %v", EnvSpec, on, err)
	}

	t.Setenv(EnvSpec, string(p)+"=error:1")
	t.Setenv(EnvSeed, "not-a-number")
	if _, err := EnableFromEnv(); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestPointsListsRegistrations(t *testing.T) {
	p := testPoint(t, "test.list")
	found := false
	for _, pi := range Points() {
		if pi.Point == p && pi.Description == "test point" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Points() does not list %s: %+v", p, Points())
	}
}

// FuzzParsePlan feeds arbitrary specs to the TANGO_FAULTS parser: it never
// panics, and a plan it accepts has at least one rule, every rate in [0, 1]
// and a positive delay on every latency rule.  Seeds are the specs the tests,
// README and CI use, over the points the binaries register.
func FuzzParsePlan(f *testing.F) {
	for _, name := range []string{"serve.batch.run", "serve.admit", "target.run", "par.task"} {
		p := Register(Point(name), "fuzz point")
		f.Cleanup(func() {
			regMu.Lock()
			delete(registered, p)
			regMu.Unlock()
		})
	}
	for _, spec := range []string{
		"serve.batch.run=panic:0.03;serve.batch.run=error:0.05",
		"serve.batch.run=panic:0.03;serve.batch.run=error:0.05;serve.batch.run=latency:0.2:2ms;serve.admit=latency:0.1:500us",
		"target.run=latency:1:300ms",
		"target.run=error:1:only=CifarNet/",
		"serve.batch.run=error:1",
		"par.task=error:0.5, target.run=panic:0",
		"serve.admit=error:NaN",
		"serve.admit=latency:1:-1s",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := parsePlan(spec, 1)
		if err != nil {
			return
		}
		n := 0
		for _, rules := range pl.rules {
			for _, r := range rules {
				n++
				if !(r.rate >= 0 && r.rate <= 1) {
					t.Fatalf("spec %q: accepted rate %v", spec, r.rate)
				}
				if r.mode == modeLatency && r.delay <= 0 {
					t.Fatalf("spec %q: accepted latency rule with delay %v", spec, r.delay)
				}
			}
		}
		if n == 0 {
			t.Fatalf("spec %q: accepted a plan with no rules", spec)
		}
	})
}
