// Package isa defines a PowerPC-flavoured 64-bit instruction subset used
// throughout the simulator, together with the two instructions the paper
// proposes adding to the POWER ISA: the hypothetical single-cycle max
// instruction and the embedded-PowerPC isel (integer select).
//
// The subset covers the integer, compare, branch and load/store
// instructions that the dynamic-programming kernels of the BioPerf
// applications compile to.  Instructions have a fixed 32-bit encoding in
// PPC-style forms (D, X, I, B and A) implemented in encode.go; the
// functional semantics live in package machine and the timing behaviour
// in package cpu.
package isa

import "fmt"

// Reg identifies an architectural register.  General-purpose registers
// are R0..R31.  The eight 4-bit condition-register fields, the link
// register and the count register are modelled as additional registers
// so the timing model can track dependencies through them uniformly.
type Reg uint8

// Register name space.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31

	// CR0..CR7 are the eight condition-register fields.
	CR0
	CR1
	CR2
	CR3
	CR4
	CR5
	CR6
	CR7

	LR  // link register
	CTR // count register

	NumRegs // number of architectural registers

	// NoReg marks an unused register slot in an instruction.
	NoReg Reg = 0xFF
)

// SP is the stack pointer by PowerPC convention.
const SP = R1

// IsGPR reports whether r is a general-purpose register.
func (r Reg) IsGPR() bool { return r <= R31 }

// IsCR reports whether r is a condition-register field.
func (r Reg) IsCR() bool { return r >= CR0 && r <= CR7 }

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch {
	case r <= R31:
		return fmt.Sprintf("r%d", uint8(r))
	case r.IsCR():
		return fmt.Sprintf("cr%d", uint8(r-CR0))
	case r == LR:
		return "lr"
	case r == CTR:
		return "ctr"
	case r == NoReg:
		return "-"
	}
	return fmt.Sprintf("reg%d", uint8(r))
}

// CRBit identifies one of the four bits within a condition-register
// field, following the PowerPC convention.
type CRBit uint8

// Condition-register bits within a field.
const (
	CRLT CRBit = iota // negative / less than
	CRGT              // positive / greater than
	CREQ              // zero / equal
	CRSO              // summary overflow (unused by the subset)
)

// String returns the conventional bit name.
func (b CRBit) String() string {
	switch b {
	case CRLT:
		return "lt"
	case CRGT:
		return "gt"
	case CREQ:
		return "eq"
	case CRSO:
		return "so"
	}
	return fmt.Sprintf("crbit%d", uint8(b))
}

// Op enumerates the operations of the subset.
type Op uint8

// Operations.  The comment gives the semantics in pseudo-code; rt, ra,
// rb are GPRs, imm is the sign-extended immediate, and crf the CR field.
const (
	OpInvalid Op = iota

	// Integer arithmetic and logical.
	OpAdd   // rt = ra + rb
	OpAddi  // rt = ra + imm (ra==R0 means literal 0, as in PowerPC li)
	OpAddis // rt = ra + (imm << 16)
	OpSubf  // rt = rb - ra
	OpNeg   // rt = -ra
	OpMulld // rt = ra * rb (low 64 bits)
	OpMulli // rt = ra * imm
	OpDivd  // rt = ra / rb (signed; rb==0 yields 0)
	OpAnd   // rt = ra & rb
	OpAndi  // rt = ra & uimm
	OpOr    // rt = ra | rb
	OpOri   // rt = ra | uimm
	OpXor   // rt = ra ^ rb
	OpXori  // rt = ra ^ uimm
	OpSld   // rt = ra << (rb & 127), 0 if shift >= 64
	OpSrd   // rt = ra >> (rb & 127) logical
	OpSrad  // rt = ra >> (rb & 127) arithmetic
	OpSldi  // rt = ra << imm
	OpSrdi  // rt = ra >> imm logical
	OpSradi // rt = ra >> imm arithmetic
	OpExtsb // rt = sign-extend byte(ra)
	OpExtsh // rt = sign-extend half(ra)
	OpExtsw // rt = sign-extend word(ra)

	// The paper's proposed predicated instructions.
	OpMax  // rt = max(signed ra, signed rb); single-cycle FXU op
	OpIsel // rt = (CR[crf] bit crbit set) ? ra : rb

	// Compares (set a CR field).
	OpCmpd   // crf <- signed compare(ra, rb)
	OpCmpdi  // crf <- signed compare(ra, imm)
	OpCmpld  // crf <- unsigned compare(ra, rb)
	OpCmpldi // crf <- unsigned compare(ra, uimm)

	// Branches.
	OpB    // unconditional relative branch (lk: bl)
	OpBc   // conditional branch on CR bit (taken if bit==want)
	OpBdnz // ctr--; branch if ctr != 0
	OpBlr  // branch to LR (function return)

	// Loads (all zero-extend unless noted; ea = ra + imm or ra + rb).
	OpLbz  // rt = mem8[ra+imm]
	OpLbzx // rt = mem8[ra+rb]
	OpLhz  // rt = mem16[ra+imm]
	OpLhzx // rt = mem16[ra+rb]
	OpLha  // rt = sign-extended mem16[ra+imm]
	OpLhax // rt = sign-extended mem16[ra+rb]
	OpLwz  // rt = mem32[ra+imm]
	OpLwzx // rt = mem32[ra+rb]
	OpLwa  // rt = sign-extended mem32[ra+imm]
	OpLwax // rt = sign-extended mem32[ra+rb]
	OpLd   // rt = mem64[ra+imm]
	OpLdx  // rt = mem64[ra+rb]

	// Stores.
	OpStb  // mem8[ra+imm] = rt
	OpStbx // mem8[ra+rb] = rt
	OpSth  // mem16[ra+imm] = rt
	OpSthx // mem16[ra+rb] = rt
	OpStw  // mem32[ra+imm] = rt
	OpStwx // mem32[ra+rb] = rt
	OpStd  // mem64[ra+imm] = rt
	OpStdx // mem64[ra+rb] = rt

	// Miscellaneous.
	OpMtlr  // LR = ra
	OpMflr  // rt = LR
	OpMtctr // CTR = ra
	OpMfctr // rt = CTR
	OpNop   // no operation

	NumOps // number of operations
)

// Class is the functional-unit class an operation executes in, mirroring
// the POWER5 execution resources the paper discusses.
type Class uint8

// Functional-unit classes.
const (
	ClassFXU Class = iota // fixed-point unit
	ClassLSU              // load/store unit
	ClassBRU              // branch unit
	ClassCRU              // condition-register unit (mtlr/mflr etc.)
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassFXU:
		return "FXU"
	case ClassLSU:
		return "LSU"
	case ClassBRU:
		return "BRU"
	case ClassCRU:
		return "CRU"
	}
	return "???"
}

// Info carries the static metadata of an operation.
type Info struct {
	Name    string // assembler mnemonic
	Class   Class  // functional unit class
	Latency int    // execution latency in cycles
	Load    bool   // reads memory
	Store   bool   // writes memory
	Branch  bool   // changes control flow
	CondBr  bool   // conditional branch
	Compare bool   // writes a CR field
}

var opInfo = [NumOps]Info{
	OpInvalid: {Name: "invalid", Class: ClassFXU, Latency: 1},

	OpAdd:   {Name: "add", Class: ClassFXU, Latency: 1},
	OpAddi:  {Name: "addi", Class: ClassFXU, Latency: 1},
	OpAddis: {Name: "addis", Class: ClassFXU, Latency: 1},
	OpSubf:  {Name: "subf", Class: ClassFXU, Latency: 1},
	OpNeg:   {Name: "neg", Class: ClassFXU, Latency: 1},
	OpMulld: {Name: "mulld", Class: ClassFXU, Latency: 5},
	OpMulli: {Name: "mulli", Class: ClassFXU, Latency: 5},
	OpDivd:  {Name: "divd", Class: ClassFXU, Latency: 20},
	OpAnd:   {Name: "and", Class: ClassFXU, Latency: 1},
	OpAndi:  {Name: "andi.", Class: ClassFXU, Latency: 1},
	OpOr:    {Name: "or", Class: ClassFXU, Latency: 1},
	OpOri:   {Name: "ori", Class: ClassFXU, Latency: 1},
	OpXor:   {Name: "xor", Class: ClassFXU, Latency: 1},
	OpXori:  {Name: "xori", Class: ClassFXU, Latency: 1},
	OpSld:   {Name: "sld", Class: ClassFXU, Latency: 1},
	OpSrd:   {Name: "srd", Class: ClassFXU, Latency: 1},
	OpSrad:  {Name: "srad", Class: ClassFXU, Latency: 1},
	OpSldi:  {Name: "sldi", Class: ClassFXU, Latency: 1},
	OpSrdi:  {Name: "srdi", Class: ClassFXU, Latency: 1},
	OpSradi: {Name: "sradi", Class: ClassFXU, Latency: 1},
	OpExtsb: {Name: "extsb", Class: ClassFXU, Latency: 1},
	OpExtsh: {Name: "extsh", Class: ClassFXU, Latency: 1},
	OpExtsw: {Name: "extsw", Class: ClassFXU, Latency: 1},

	OpMax:  {Name: "max", Class: ClassFXU, Latency: 1},
	OpIsel: {Name: "isel", Class: ClassFXU, Latency: 1},

	OpCmpd:   {Name: "cmpd", Class: ClassFXU, Latency: 1, Compare: true},
	OpCmpdi:  {Name: "cmpdi", Class: ClassFXU, Latency: 1, Compare: true},
	OpCmpld:  {Name: "cmpld", Class: ClassFXU, Latency: 1, Compare: true},
	OpCmpldi: {Name: "cmpldi", Class: ClassFXU, Latency: 1, Compare: true},

	OpB:    {Name: "b", Class: ClassBRU, Latency: 1, Branch: true},
	OpBc:   {Name: "bc", Class: ClassBRU, Latency: 1, Branch: true, CondBr: true},
	OpBdnz: {Name: "bdnz", Class: ClassBRU, Latency: 1, Branch: true, CondBr: true},
	OpBlr:  {Name: "blr", Class: ClassBRU, Latency: 1, Branch: true},

	OpLbz:  {Name: "lbz", Class: ClassLSU, Latency: 2, Load: true},
	OpLbzx: {Name: "lbzx", Class: ClassLSU, Latency: 2, Load: true},
	OpLhz:  {Name: "lhz", Class: ClassLSU, Latency: 2, Load: true},
	OpLhzx: {Name: "lhzx", Class: ClassLSU, Latency: 2, Load: true},
	OpLha:  {Name: "lha", Class: ClassLSU, Latency: 2, Load: true},
	OpLhax: {Name: "lhax", Class: ClassLSU, Latency: 2, Load: true},
	OpLwz:  {Name: "lwz", Class: ClassLSU, Latency: 2, Load: true},
	OpLwzx: {Name: "lwzx", Class: ClassLSU, Latency: 2, Load: true},
	OpLwa:  {Name: "lwa", Class: ClassLSU, Latency: 2, Load: true},
	OpLwax: {Name: "lwax", Class: ClassLSU, Latency: 2, Load: true},
	OpLd:   {Name: "ld", Class: ClassLSU, Latency: 2, Load: true},
	OpLdx:  {Name: "ldx", Class: ClassLSU, Latency: 2, Load: true},

	OpStb:  {Name: "stb", Class: ClassLSU, Latency: 1, Store: true},
	OpStbx: {Name: "stbx", Class: ClassLSU, Latency: 1, Store: true},
	OpSth:  {Name: "sth", Class: ClassLSU, Latency: 1, Store: true},
	OpSthx: {Name: "sthx", Class: ClassLSU, Latency: 1, Store: true},
	OpStw:  {Name: "stw", Class: ClassLSU, Latency: 1, Store: true},
	OpStwx: {Name: "stwx", Class: ClassLSU, Latency: 1, Store: true},
	OpStd:  {Name: "std", Class: ClassLSU, Latency: 1, Store: true},
	OpStdx: {Name: "stdx", Class: ClassLSU, Latency: 1, Store: true},

	OpMtlr:  {Name: "mtlr", Class: ClassCRU, Latency: 1},
	OpMflr:  {Name: "mflr", Class: ClassCRU, Latency: 1},
	OpMtctr: {Name: "mtctr", Class: ClassCRU, Latency: 1},
	OpMfctr: {Name: "mfctr", Class: ClassCRU, Latency: 1},
	OpNop:   {Name: "nop", Class: ClassFXU, Latency: 1},
}

// Info returns the static metadata for op.
func (op Op) Info() Info {
	if op >= NumOps {
		return opInfo[OpInvalid]
	}
	return opInfo[op]
}

// String returns the assembler mnemonic.
func (op Op) String() string { return op.Info().Name }

// Instruction is one decoded instruction of the subset.  Fields that a
// given operation does not use are left at their zero values (or NoReg).
type Instruction struct {
	Op   Op
	RT   Reg   // target register (source for stores)
	RA   Reg   // first source
	RB   Reg   // second source (indexed addressing)
	CRF  Reg   // condition register field (CR0..CR7) for cmp/bc/isel
	Bit  CRBit // condition bit within CRF for bc/isel
	Want bool  // bc: branch taken when bit == Want
	Imm  int64 // immediate / displacement
	// Target is the branch target expressed as an instruction index
	// within the program (not a byte address).  Filled in by the
	// assembler after label resolution.
	Target int
}

// Uses appends the registers the instruction reads to dst and returns it.
func (ins *Instruction) Uses(dst []Reg) []Reg {
	switch ins.Op {
	case OpAdd, OpSubf, OpMulld, OpDivd, OpAnd, OpOr, OpXor,
		OpSld, OpSrd, OpSrad, OpMax, OpCmpd, OpCmpld:
		dst = append(dst, ins.RA, ins.RB)
	case OpAddi, OpAddis:
		if ins.RA != R0 { // ra==0 means literal zero (li/lis)
			dst = append(dst, ins.RA)
		}
	case OpMulli, OpAndi, OpOri, OpXori, OpSldi, OpSrdi, OpSradi,
		OpNeg, OpExtsb, OpExtsh, OpExtsw, OpCmpdi, OpCmpldi,
		OpMtlr, OpMtctr:
		dst = append(dst, ins.RA)
	case OpIsel:
		dst = append(dst, ins.RA, ins.RB, ins.CRF)
	case OpBc:
		dst = append(dst, ins.CRF)
	case OpBdnz:
		dst = append(dst, CTR)
	case OpBlr:
		dst = append(dst, LR)
	case OpMflr:
		dst = append(dst, LR)
	case OpMfctr:
		dst = append(dst, CTR)
	case OpLbz, OpLhz, OpLha, OpLwz, OpLwa, OpLd:
		dst = append(dst, ins.RA)
	case OpLbzx, OpLhzx, OpLhax, OpLwzx, OpLwax, OpLdx:
		dst = append(dst, ins.RA, ins.RB)
	case OpStb, OpSth, OpStw, OpStd:
		dst = append(dst, ins.RT, ins.RA)
	case OpStbx, OpSthx, OpStwx, OpStdx:
		dst = append(dst, ins.RT, ins.RA, ins.RB)
	}
	return dst
}

// Defs appends the registers the instruction writes to dst and returns it.
func (ins *Instruction) Defs(dst []Reg) []Reg {
	switch ins.Op {
	case OpAdd, OpAddi, OpAddis, OpSubf, OpNeg, OpMulld, OpMulli,
		OpDivd, OpAnd, OpAndi, OpOr, OpOri, OpXor, OpXori,
		OpSld, OpSrd, OpSrad, OpSldi, OpSrdi, OpSradi,
		OpExtsb, OpExtsh, OpExtsw, OpMax, OpIsel,
		OpLbz, OpLbzx, OpLhz, OpLhzx, OpLha, OpLhax,
		OpLwz, OpLwzx, OpLwa, OpLwax, OpLd, OpLdx,
		OpMflr, OpMfctr:
		dst = append(dst, ins.RT)
	case OpCmpd, OpCmpdi, OpCmpld, OpCmpldi:
		dst = append(dst, ins.CRF)
	case OpMtlr:
		dst = append(dst, LR)
	case OpMtctr:
		dst = append(dst, CTR)
	case OpBdnz:
		dst = append(dst, CTR)
	case OpB:
		if ins.ImmLK() {
			dst = append(dst, LR)
		}
	}
	return dst
}

// ImmLK reports whether a branch instruction sets the link register.
// Encoded in the low bit of Imm for OpB (mirroring the PowerPC LK bit).
func (ins *Instruction) ImmLK() bool { return ins.Op == OpB && ins.Imm&1 != 0 }

// Validate checks the structural well-formedness of the instruction and
// returns a descriptive error when a field is out of range for the
// operation.
func (ins *Instruction) Validate() error {
	info := ins.Op.Info()
	if ins.Op == OpInvalid || ins.Op >= NumOps {
		return fmt.Errorf("isa: invalid opcode %d", ins.Op)
	}
	checkGPR := func(role string, r Reg) error {
		if !r.IsGPR() {
			return fmt.Errorf("isa: %s: %s operand %s is not a GPR", info.Name, role, r)
		}
		return nil
	}
	switch ins.Op {
	case OpCmpd, OpCmpdi, OpCmpld, OpCmpldi:
		if !ins.CRF.IsCR() {
			return fmt.Errorf("isa: %s: CRF %s is not a CR field", info.Name, ins.CRF)
		}
		return checkGPR("ra", ins.RA)
	case OpBc:
		if !ins.CRF.IsCR() {
			return fmt.Errorf("isa: %s: CRF %s is not a CR field", info.Name, ins.CRF)
		}
		if ins.Bit > CRSO {
			return fmt.Errorf("isa: %s: CR bit %d out of range", info.Name, ins.Bit)
		}
		return nil
	case OpIsel:
		if !ins.CRF.IsCR() {
			return fmt.Errorf("isa: %s: CRF %s is not a CR field", info.Name, ins.CRF)
		}
		if err := checkGPR("rt", ins.RT); err != nil {
			return err
		}
		if err := checkGPR("ra", ins.RA); err != nil {
			return err
		}
		return checkGPR("rb", ins.RB)
	case OpB, OpBdnz, OpBlr, OpNop:
		return nil
	case OpMtlr, OpMtctr:
		return checkGPR("ra", ins.RA)
	case OpMflr, OpMfctr:
		return checkGPR("rt", ins.RT)
	}
	if info.Store || info.Load {
		if err := checkGPR("rt", ins.RT); err != nil {
			return err
		}
		return checkGPR("ra", ins.RA)
	}
	if err := checkGPR("rt", ins.RT); err != nil {
		return err
	}
	return nil
}
