package power_test

import (
	"testing"

	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/power"
)

func simulate(t *testing.T, name string) *gpusim.RunStats {
	t.Helper()
	n, err := networks.New(name)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpusim.New(gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.FastSampling()))
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.RunKernels(n.Name, kernels)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestComponentNames(t *testing.T) {
	if len(power.Components()) != int(power.NumComponents) {
		t.Error("Components() should enumerate every component")
	}
	if power.CompRegFile.String() != "RFP" || power.CompIdleCore.String() != "IDLE_COREP" {
		t.Error("unexpected component labels")
	}
	for _, c := range power.Components() {
		if c.String() == "" {
			t.Errorf("component %d has no label", c)
		}
	}
}

func TestKernelPowerBasics(t *testing.T) {
	rs := simulate(t, "CifarNet")
	m := power.NewModel(device.PascalGP102())
	for _, ks := range rs.Kernels {
		b := m.KernelPower(ks)
		if b.TotalWatts <= 0 {
			t.Errorf("%s: non-positive power", ks.Kernel.Name)
		}
		if b.TotalWatts > m.Device().TDPWatts+1e-9 {
			t.Errorf("%s: power %v exceeds TDP %v", ks.Kernel.Name, b.TotalWatts, m.Device().TDPWatts)
		}
		if b.EnergyJoules <= 0 || b.Seconds <= 0 {
			t.Errorf("%s: energy/time must be positive", ks.Kernel.Name)
		}
		if b.Occupancy <= 0 || b.Occupancy > 1 {
			t.Errorf("%s: occupancy %v out of range", ks.Kernel.Name, b.Occupancy)
		}
		var sum float64
		for _, w := range b.Watts {
			if w < 0 {
				t.Errorf("%s: negative component power", ks.Kernel.Name)
			}
			sum += w
		}
		if diff := sum - b.TotalWatts; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: component sum %v != total %v", ks.Kernel.Name, sum, b.TotalWatts)
		}
		// The idle-core and register-file components the paper highlights
		// must be present.
		if b.Watts[power.CompIdleCore] <= 0 {
			t.Errorf("%s: idle core power missing", ks.Kernel.Name)
		}
		if b.Watts[power.CompRegFile] <= 0 {
			t.Errorf("%s: register file power missing", ks.Kernel.Name)
		}
	}
}

func TestNetworkPowerAggregation(t *testing.T) {
	rs := simulate(t, "CifarNet")
	m := power.NewModel(device.PascalGP102())
	np := m.NetworkPower(rs)
	if np.Network != "CifarNet" {
		t.Errorf("network name %q", np.Network)
	}
	if len(np.PerKernel) != len(rs.Kernels) {
		t.Errorf("per-kernel entries %d, want %d", len(np.PerKernel), len(rs.Kernels))
	}
	if np.PeakWatts <= 0 || np.PeakKernel == "" {
		t.Error("peak power should be identified")
	}
	if np.AvgWatts <= 0 || np.AvgWatts > np.PeakWatts+1e-9 {
		t.Errorf("average power %v should be positive and <= peak %v", np.AvgWatts, np.PeakWatts)
	}
	if np.TotalEnergyJoules <= 0 || np.TotalSeconds <= 0 {
		t.Error("energy and time should be positive")
	}
	if len(np.ByClassWatts) == 0 {
		t.Error("per-class power should be populated")
	}
	if np.ByClassWatts[networks.ClassConv] <= 0 {
		t.Error("conv class power missing")
	}
	var compSum float64
	for _, w := range np.ByComponentWatts {
		compSum += w
	}
	if compSum <= 0 {
		t.Error("per-component averages should be populated")
	}
}

func TestPeakPowerGrowsWithLayerSize(t *testing.T) {
	// Observation 3: networks with larger layers draw higher peak power.
	if testing.Short() {
		t.Skip("multi-network power comparison skipped in -short mode")
	}
	m := power.NewModel(device.PascalGP102())
	cifar := m.NetworkPower(simulate(t, "CifarNet"))
	alex := m.NetworkPower(simulate(t, "AlexNet"))
	if alex.PeakWatts <= cifar.PeakWatts {
		t.Errorf("AlexNet peak power (%v W) should exceed CifarNet's (%v W)", alex.PeakWatts, cifar.PeakWatts)
	}
	gru := m.NetworkPower(simulate(t, "GRU"))
	if gru.PeakWatts >= cifar.PeakWatts {
		t.Errorf("GRU peak power (%v W) should be below CifarNet's (%v W)", gru.PeakWatts, cifar.PeakWatts)
	}
}

func TestPowerMoreBalancedThanTime(t *testing.T) {
	// Observation 4: convolution dominates time far more than it dominates
	// power.  Compare conv's share of cycles against its share of per-class
	// average power mass.
	rs := simulate(t, "CifarNet")
	m := power.NewModel(device.PascalGP102())
	np := m.NetworkPower(rs)

	cycles := rs.CyclesByClass()
	var cycleTotal int64
	for _, c := range cycles {
		cycleTotal += c
	}
	convCycleShare := float64(cycles[networks.ClassConv]) / float64(cycleTotal)

	var powerTotal float64
	for _, w := range np.ByClassWatts {
		powerTotal += w
	}
	convPowerShare := np.ByClassWatts[networks.ClassConv] / powerTotal

	if convPowerShare >= convCycleShare {
		t.Errorf("conv power share (%.2f) should be below conv time share (%.2f)", convPowerShare, convCycleShare)
	}
}

func TestTX1PowerBelowServerGPU(t *testing.T) {
	rs := simulate(t, "CifarNet")
	server := power.NewModel(device.GK210()).NetworkPower(rs)
	mobile := power.NewModel(device.TX1()).NetworkPower(rs)
	if mobile.PeakWatts >= server.PeakWatts {
		t.Errorf("TX1 peak (%v W) should be below GK210 peak (%v W)", mobile.PeakWatts, server.PeakWatts)
	}
	if mobile.PeakWatts > device.TX1().TDPWatts {
		t.Errorf("TX1 peak %v exceeds its TDP", mobile.PeakWatts)
	}
}

func TestCustomEnergiesChangeResult(t *testing.T) {
	rs := simulate(t, "GRU")
	base := power.NewModel(device.PascalGP102()).NetworkPower(rs)
	hot := power.DefaultEnergies()
	hot.RegAccess *= 10
	scaled := power.NewModelWithEnergies(device.PascalGP102(), hot).NetworkPower(rs)
	if scaled.PerKernel[0].Watts[power.CompRegFile] <= base.PerKernel[0].Watts[power.CompRegFile] {
		t.Error("raising the register-file energy should raise its power share")
	}
}
