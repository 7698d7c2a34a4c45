// Package isa defines the PTX-like instruction set used by the Tango kernel
// code generators and by the GPU architecture simulator.
//
// The opcode vocabulary mirrors the operation types reported by the paper
// (Figure 8): abs, add, and, bar, bra, callp, cvt, ex2, exit, ld, mad, mad24,
// max, min, mov, mul, or, rcp, retp, rsqrt, set, shl, shr, ssy, st, xor and
// nop.  Every instruction carries a data type drawn from the set the paper
// reports in Figure 10 (f32, u32, u16, s32, s16) plus a predicate/none type
// for control instructions.
package isa

import "fmt"

// Opcode identifies one machine operation.
type Opcode uint8

// The full opcode vocabulary.  The order is stable so opcodes can be used as
// array indices in statistics tables.
const (
	OpNop Opcode = iota
	OpAbs
	OpAdd
	OpAnd
	OpBar
	OpBra
	OpCallp
	OpCvt
	OpEx2
	OpExit
	OpLd
	OpMad
	OpMad24
	OpMax
	OpMin
	OpMov
	OpMul
	OpOr
	OpRcp
	OpRetp
	OpRsqrt
	OpSet
	OpShl
	OpShr
	OpSsy
	OpSt
	OpXor
	// NumOpcodes is the number of defined opcodes.
	NumOpcodes
)

var opcodeNames = [NumOpcodes]string{
	OpNop:   "nop",
	OpAbs:   "abs",
	OpAdd:   "add",
	OpAnd:   "and",
	OpBar:   "bar",
	OpBra:   "bra",
	OpCallp: "callp",
	OpCvt:   "cvt",
	OpEx2:   "ex2",
	OpExit:  "exit",
	OpLd:    "ld",
	OpMad:   "mad",
	OpMad24: "mad24",
	OpMax:   "max",
	OpMin:   "min",
	OpMov:   "mov",
	OpMul:   "mul",
	OpOr:    "or",
	OpRcp:   "rcp",
	OpRetp:  "retp",
	OpRsqrt: "rsqrt",
	OpSet:   "set",
	OpShl:   "shl",
	OpShr:   "shr",
	OpSsy:   "ssy",
	OpSt:    "st",
	OpXor:   "xor",
}

// String returns the PTX-style mnemonic of the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o < NumOpcodes }

// DType is the operand data type of an instruction.
type DType uint8

// Data types observed in the paper's instruction-type breakdown (Figure 10).
const (
	TypeNone DType = iota // control instructions, predicates
	TypeF32
	TypeU32
	TypeU16
	TypeS32
	TypeS16
	// NumDTypes is the number of defined data types.
	NumDTypes
)

var dtypeNames = [NumDTypes]string{
	TypeNone: "none",
	TypeF32:  "f32",
	TypeU32:  "u32",
	TypeU16:  "u16",
	TypeS32:  "s32",
	TypeS16:  "s16",
}

// String returns the PTX-style type suffix.
func (t DType) String() string {
	if int(t) < len(dtypeNames) {
		return dtypeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a defined data type.
func (t DType) Valid() bool { return t < NumDTypes }

// Bytes returns the operand width in bytes (0 for TypeNone).
func (t DType) Bytes() int {
	switch t {
	case TypeF32, TypeU32, TypeS32:
		return 4
	case TypeU16, TypeS16:
		return 2
	default:
		return 0
	}
}

// MemSpace is the memory space addressed by a load or store.
type MemSpace uint8

// Memory spaces of the GPU programming model.
const (
	SpaceNone MemSpace = iota
	SpaceGlobal
	SpaceShared
	SpaceConst
	SpaceLocal
	SpaceParam
	// NumMemSpaces is the number of defined memory spaces.
	NumMemSpaces
)

var memSpaceNames = [NumMemSpaces]string{
	SpaceNone:   "none",
	SpaceGlobal: "global",
	SpaceShared: "shared",
	SpaceConst:  "const",
	SpaceLocal:  "local",
	SpaceParam:  "param",
}

// String returns the space name.
func (s MemSpace) String() string {
	if int(s) < len(memSpaceNames) {
		return memSpaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// FuncUnit is the execution pipeline an opcode is issued to.
type FuncUnit uint8

// Execution pipelines of a streaming multiprocessor.
const (
	UnitNone FuncUnit = iota // nop, exit and other zero-latency control
	UnitSP                   // integer / simple ALU pipeline
	UnitFPU                  // single-precision floating-point pipeline
	UnitSFU                  // special function unit (rcp, rsqrt, ex2)
	UnitMem                  // load/store unit
	UnitCtrl                 // branch / barrier / call pipeline
	// NumFuncUnits is the number of defined functional units.
	NumFuncUnits
)

var funcUnitNames = [NumFuncUnits]string{
	UnitNone: "none",
	UnitSP:   "sp",
	UnitFPU:  "fpu",
	UnitSFU:  "sfu",
	UnitMem:  "mem",
	UnitCtrl: "ctrl",
}

// String returns the unit name.
func (u FuncUnit) String() string {
	if int(u) < len(funcUnitNames) {
		return funcUnitNames[u]
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Reg is a virtual register index inside a thread's register frame.
type Reg uint8

// NoReg marks an unused register operand slot.
const NoReg Reg = 0xFF

// Instruction is one static instruction of a thread program.  Memory
// instructions additionally carry an access pattern that the simulator uses
// to derive per-thread addresses.
type Instruction struct {
	Op    Opcode
	Type  DType
	Dst   Reg
	Srcs  [3]Reg
	NSrcs uint8

	// Space is the memory space for OpLd / OpSt, SpaceNone otherwise.
	Space MemSpace

	// Pattern describes address generation for OpLd / OpSt.
	Pattern AccessPattern
}

// Region identifies which logical buffer of a kernel a memory access targets.
// The simulator assigns a device address range to each region per kernel.
type Region uint8

// Logical kernel buffers.
const (
	RegionNone Region = iota
	RegionInput
	RegionWeights
	RegionBias
	RegionOutput
	RegionScratch
	// NumRegions is the number of defined regions.
	NumRegions
)

var regionNames = [NumRegions]string{
	RegionNone:    "none",
	RegionInput:   "input",
	RegionWeights: "weights",
	RegionBias:    "bias",
	RegionOutput:  "output",
	RegionScratch: "scratch",
}

// String returns the region name.
func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// AccessPattern describes how a memory instruction's address varies across
// threads and loop iterations.  Addresses are byte addresses relative to the
// start of the addressed Region; the simulator adds a per-kernel region base.
type AccessPattern struct {
	// Region is the logical buffer the access targets.
	Region Region
	// Base is the byte offset of the first accessed element.
	Base uint64
	// ThreadStride is the address delta between consecutive threads of a warp.
	ThreadStride int64
	// IterStride is the address delta between consecutive loop iterations.
	IterStride int64
	// BlockStride is the address delta between consecutive thread blocks.
	BlockStride int64
	// Footprint bounds the region touched by the pattern; addresses wrap
	// modulo Footprint when it is non-zero, modelling data reuse.
	Footprint uint64
	// Bytes is the access width per thread (defaults to the dtype width).
	Bytes int
}

// NewALU returns a non-memory instruction.
func NewALU(op Opcode, t DType, dst Reg, srcs ...Reg) Instruction {
	ins := Instruction{Op: op, Type: t, Dst: dst}
	n := len(srcs)
	if n > 3 {
		n = 3
	}
	for i := 0; i < n; i++ {
		ins.Srcs[i] = srcs[i]
	}
	for i := n; i < 3; i++ {
		ins.Srcs[i] = NoReg
	}
	ins.NSrcs = uint8(n)
	return ins
}

// NewLoad returns a load instruction with the given access pattern.
func NewLoad(t DType, dst Reg, space MemSpace, pat AccessPattern) Instruction {
	ins := NewALU(OpLd, t, dst)
	ins.Space = space
	if pat.Bytes == 0 {
		pat.Bytes = t.Bytes()
	}
	ins.Pattern = pat
	return ins
}

// NewStore returns a store instruction with the given access pattern.
func NewStore(t DType, src Reg, space MemSpace, pat AccessPattern) Instruction {
	ins := NewALU(OpSt, t, NoReg, src)
	ins.Space = space
	if pat.Bytes == 0 {
		pat.Bytes = t.Bytes()
	}
	ins.Pattern = pat
	return ins
}

// IsMem reports whether the instruction accesses memory.
func (i Instruction) IsMem() bool { return i.Op == OpLd || i.Op == OpSt }

// IsLoad reports whether the instruction is a load.
func (i Instruction) IsLoad() bool { return i.Op == OpLd }

// IsStore reports whether the instruction is a store.
func (i Instruction) IsStore() bool { return i.Op == OpSt }

// IsControl reports whether the instruction executes on the control pipeline.
func (i Instruction) IsControl() bool { return Unit(i.Op) == UnitCtrl }

// String renders a compact PTX-like disassembly of the instruction.
func (i Instruction) String() string {
	s := i.Op.String()
	if i.Type != TypeNone {
		s += "." + i.Type.String()
	}
	if i.Space != SpaceNone {
		s += "." + i.Space.String()
	}
	return s
}

// Unit returns the functional unit that executes the opcode for f32 and
// integer types.  Floating-point arithmetic goes to the FPU, transcendental
// ops to the SFU, memory ops to the LSU and the rest to the SP pipeline.
func Unit(op Opcode) FuncUnit {
	switch op {
	case OpLd, OpSt:
		return UnitMem
	case OpRcp, OpRsqrt, OpEx2:
		return UnitSFU
	case OpBra, OpBar, OpSsy, OpCallp, OpRetp, OpExit:
		return UnitCtrl
	case OpNop:
		return UnitNone
	default:
		return UnitSP
	}
}

// UnitFor returns the execution unit for an instruction, accounting for the
// data type: arithmetic on f32 operands executes on the FPU pipeline.
func UnitFor(ins Instruction) FuncUnit {
	u := Unit(ins.Op)
	if u == UnitSP && ins.Type == TypeF32 {
		switch ins.Op {
		case OpAdd, OpMul, OpMad, OpMad24, OpMax, OpMin, OpAbs, OpSet, OpCvt:
			return UnitFPU
		}
	}
	return u
}

// Latency returns the result latency in cycles for an instruction, i.e. the
// number of cycles before a dependent instruction may issue.
func Latency(ins Instruction) int {
	switch Unit(ins.Op) {
	case UnitSFU:
		return 16
	case UnitMem:
		// Memory latency is determined dynamically by the memory system;
		// this is the minimum shared-memory / cache-hit pipeline latency.
		return 24
	case UnitCtrl, UnitNone:
		return 1
	}
	if ins.Type == TypeF32 {
		if ins.Op == OpMad || ins.Op == OpMad24 {
			return 6
		}
		return 4
	}
	return 4
}

// ThroughputCPI returns the issue interval (cycles per instruction) of the
// functional unit executing the instruction, modelling pipeline width.
func ThroughputCPI(ins Instruction) int {
	switch UnitFor(ins) {
	case UnitSFU:
		return 4
	case UnitMem:
		return 2
	default:
		return 1
	}
}
