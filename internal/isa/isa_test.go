package isa

import (
	"testing"
	"testing/quick"
)

func TestOpcodeStrings(t *testing.T) {
	cases := map[Opcode]string{
		OpNop:   "nop",
		OpAdd:   "add",
		OpMad:   "mad",
		OpMad24: "mad24",
		OpShl:   "shl",
		OpShr:   "shr",
		OpLd:    "ld",
		OpSt:    "st",
		OpSsy:   "ssy",
		OpRsqrt: "rsqrt",
		OpEx2:   "ex2",
		OpXor:   "xor",
		OpExit:  "exit",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Opcode(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestOpcodeStringAllDefined(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has empty mnemonic", op)
		}
		if !op.Valid() {
			t.Errorf("opcode %d should be valid", op)
		}
	}
	if Opcode(NumOpcodes).Valid() {
		t.Error("NumOpcodes should not be a valid opcode")
	}
}

func TestDTypeBytes(t *testing.T) {
	cases := map[DType]int{
		TypeF32:  4,
		TypeU32:  4,
		TypeS32:  4,
		TypeU16:  2,
		TypeS16:  2,
		TypeNone: 0,
	}
	for dt, want := range cases {
		if got := dt.Bytes(); got != want {
			t.Errorf("%v.Bytes() = %d, want %d", dt, got, want)
		}
	}
}

func TestDTypeStrings(t *testing.T) {
	want := map[DType]string{
		TypeF32: "f32", TypeU32: "u32", TypeU16: "u16",
		TypeS32: "s32", TypeS16: "s16", TypeNone: "none",
	}
	for dt, s := range want {
		if dt.String() != s {
			t.Errorf("%d.String() = %q, want %q", dt, dt.String(), s)
		}
		if !dt.Valid() {
			t.Errorf("dtype %v should be valid", dt)
		}
	}
}

func TestUnitClassification(t *testing.T) {
	cases := map[Opcode]FuncUnit{
		OpLd:    UnitMem,
		OpSt:    UnitMem,
		OpRcp:   UnitSFU,
		OpRsqrt: UnitSFU,
		OpEx2:   UnitSFU,
		OpBra:   UnitCtrl,
		OpBar:   UnitCtrl,
		OpSsy:   UnitCtrl,
		OpExit:  UnitCtrl,
		OpNop:   UnitNone,
		OpAdd:   UnitSP,
		OpMad:   UnitSP,
		OpShl:   UnitSP,
	}
	for op, want := range cases {
		if got := Unit(op); got != want {
			t.Errorf("Unit(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestUnitForFloatGoesToFPU(t *testing.T) {
	fmad := NewALU(OpMad, TypeF32, 1, 2, 3, 4)
	if UnitFor(fmad) != UnitFPU {
		t.Errorf("f32 mad should execute on FPU, got %v", UnitFor(fmad))
	}
	imad := NewALU(OpMad, TypeU32, 1, 2, 3, 4)
	if UnitFor(imad) != UnitSP {
		t.Errorf("u32 mad should execute on SP, got %v", UnitFor(imad))
	}
	frcp := NewALU(OpRcp, TypeF32, 1, 2)
	if UnitFor(frcp) != UnitSFU {
		t.Errorf("rcp should stay on SFU, got %v", UnitFor(frcp))
	}
}

func TestNewALUOperands(t *testing.T) {
	ins := NewALU(OpMad, TypeF32, 7, 1, 2, 3)
	if ins.Dst != 7 || ins.NSrcs != 3 {
		t.Fatalf("unexpected operands: %+v", ins)
	}
	if ins.Srcs != [3]Reg{1, 2, 3} {
		t.Fatalf("unexpected sources: %+v", ins.Srcs)
	}
	two := NewALU(OpAdd, TypeU32, 4, 5, 6)
	if two.NSrcs != 2 || two.Srcs[2] != NoReg {
		t.Fatalf("unused source slot should be NoReg: %+v", two)
	}
}

func TestNewLoadStoreDefaults(t *testing.T) {
	ld := NewLoad(TypeF32, 3, SpaceGlobal, AccessPattern{Base: 64, ThreadStride: 4})
	if !ld.IsMem() || !ld.IsLoad() || ld.IsStore() {
		t.Fatalf("load classification wrong: %+v", ld)
	}
	if ld.Pattern.Bytes != 4 {
		t.Errorf("load access width should default to dtype width, got %d", ld.Pattern.Bytes)
	}
	if ld.Space != SpaceGlobal {
		t.Errorf("space = %v, want global", ld.Space)
	}

	st := NewStore(TypeU16, 2, SpaceShared, AccessPattern{})
	if !st.IsStore() || st.IsLoad() {
		t.Fatalf("store classification wrong: %+v", st)
	}
	if st.Pattern.Bytes != 2 {
		t.Errorf("store access width should default to 2, got %d", st.Pattern.Bytes)
	}
	if st.Dst != NoReg {
		t.Errorf("store should have no destination register")
	}
}

func TestInstructionString(t *testing.T) {
	ld := NewLoad(TypeF32, 1, SpaceGlobal, AccessPattern{})
	if got := ld.String(); got != "ld.f32.global" {
		t.Errorf("String() = %q, want %q", got, "ld.f32.global")
	}
	add := NewALU(OpAdd, TypeU32, 1, 2, 3)
	if got := add.String(); got != "add.u32" {
		t.Errorf("String() = %q, want %q", got, "add.u32")
	}
	bra := NewALU(OpBra, TypeNone, NoReg)
	if got := bra.String(); got != "bra" {
		t.Errorf("String() = %q, want %q", got, "bra")
	}
}

func TestLatencyPositive(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		ins := NewALU(op, TypeF32, 1, 2, 3)
		if l := Latency(ins); l <= 0 {
			t.Errorf("Latency(%v) = %d, must be positive", op, l)
		}
		if c := ThroughputCPI(ins); c <= 0 {
			t.Errorf("ThroughputCPI(%v) = %d, must be positive", op, c)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	sfu := NewALU(OpRcp, TypeF32, 1, 2)
	alu := NewALU(OpAdd, TypeU32, 1, 2, 3)
	if Latency(sfu) <= Latency(alu) {
		t.Errorf("SFU latency (%d) should exceed ALU latency (%d)", Latency(sfu), Latency(alu))
	}
	mem := NewLoad(TypeF32, 1, SpaceGlobal, AccessPattern{})
	if Latency(mem) <= Latency(alu) {
		t.Errorf("memory latency (%d) should exceed ALU latency (%d)", Latency(mem), Latency(alu))
	}
}

func TestControlClassification(t *testing.T) {
	for _, op := range []Opcode{OpBra, OpBar, OpSsy, OpExit, OpRetp, OpCallp} {
		ins := NewALU(op, TypeNone, NoReg)
		if !ins.IsControl() {
			t.Errorf("%v should be a control instruction", op)
		}
	}
	if NewALU(OpAdd, TypeU32, 1, 2).IsControl() {
		t.Error("add should not be a control instruction")
	}
}

// Property: operand slots beyond NSrcs are always NoReg regardless of how the
// constructor is invoked.
func TestQuickNewALUUnusedSlots(t *testing.T) {
	f := func(op uint8, dt uint8, dst uint8, srcs []uint8) bool {
		o := Opcode(op % uint8(NumOpcodes))
		d := DType(dt % uint8(NumDTypes))
		regs := make([]Reg, len(srcs))
		for i, s := range srcs {
			regs[i] = Reg(s)
		}
		ins := NewALU(o, d, Reg(dst), regs...)
		for i := int(ins.NSrcs); i < 3; i++ {
			if ins.Srcs[i] != NoReg {
				return false
			}
		}
		return int(ins.NSrcs) <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every opcode maps to exactly one functional unit and that unit is
// in range.
func TestQuickUnitTotal(t *testing.T) {
	f := func(op uint8) bool {
		o := Opcode(op % uint8(NumOpcodes))
		u := Unit(o)
		return u < NumFuncUnits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
