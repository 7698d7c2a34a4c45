package device

import "testing"

func TestTableIIConfigs(t *testing.T) {
	gk := GK210()
	if gk.CUDACores != 2880 {
		t.Errorf("GK210 cores = %d, want 2880 (Table II)", gk.CUDACores)
	}
	if gk.GlobalMemBytes != 24<<30 {
		t.Errorf("GK210 memory = %d, want 24 GB", gk.GlobalMemBytes)
	}
	if gk.RegistersPerSM != 65536 {
		t.Errorf("GK210 registers per SM = %d, want 65536", gk.RegistersPerSM)
	}

	tx1 := TX1()
	if tx1.CUDACores != 256 {
		t.Errorf("TX1 cores = %d, want 256 (Table II)", tx1.CUDACores)
	}
	if tx1.GlobalMemBytes != 4<<30 {
		t.Errorf("TX1 memory = %d, want 4 GB", tx1.GlobalMemBytes)
	}
	if tx1.RegistersPerSM != 32768 {
		t.Errorf("TX1 registers per SM = %d, want 32768", tx1.RegistersPerSM)
	}

	gp := PascalGP102()
	if gp.CUDACores != 3584 {
		t.Errorf("GP102 cores = %d, want 3584 (Table II)", gp.CUDACores)
	}
	if gp.L1DBytes != 64<<10 {
		t.Errorf("GP102 default L1D = %d, want 64KB (Table II)", gp.L1DBytes)
	}
	if gp.GlobalMemBytes != 11<<30 {
		t.Errorf("GP102 memory = %d, want 11 GB", gp.GlobalMemBytes)
	}
}

func TestTableIVConfig(t *testing.T) {
	p := PynQZ1()
	if p.LogicSlices != 13300 {
		t.Errorf("PynQ logic slices = %d, want 13300 (Table IV)", p.LogicSlices)
	}
	if p.BRAMBytes != 630<<10 {
		t.Errorf("PynQ BRAM = %d, want 630KB (Table IV)", p.BRAMBytes)
	}
	if p.ProcessorClockMHz != 650 {
		t.Errorf("PynQ ARM clock = %d, want 650 MHz (Table IV)", p.ProcessorClockMHz)
	}
	if p.MemBytes != 512<<20 {
		t.Errorf("PynQ memory = %d, want 512MB (Table IV)", p.MemBytes)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("PynQ config invalid: %v", err)
	}
}

func TestAllGPUsValid(t *testing.T) {
	for role, g := range map[string]GPU{"Server": GK210(), "Mobile": TX1(), "Simulator": PascalGP102()} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", role, err)
		}
		if g.Role != role {
			t.Errorf("GPU %s has role %q, want %q", g.Name, g.Role, role)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := GK210()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("unnamed GPU should fail")
	}
	bad = GK210()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SMs should fail")
	}
	bad = GK210()
	bad.SMs = 7 // 2880 % 7 != 0
	if err := bad.Validate(); err == nil {
		t.Error("uneven core split should fail")
	}
	bad = GK210()
	bad.MemBandwidthGBs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}

	badF := PynQZ1()
	badF.BRAMBytes = 0
	if err := badF.Validate(); err == nil {
		t.Error("zero BRAM should fail")
	}
	badF = PynQZ1()
	badF.Name = ""
	if err := badF.Validate(); err == nil {
		t.Error("unnamed FPGA should fail")
	}
}

func TestClassString(t *testing.T) {
	if ClassGPU.String() != "GPU" || ClassFPGA.String() != "FPGA" {
		t.Error("unexpected class names")
	}
}
