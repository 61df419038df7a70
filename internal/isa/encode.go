package isa

import "fmt"

// The subset uses fixed 32-bit instruction words in PowerPC-style
// forms.  The exact opcode assignments are our own (documented here
// rather than copied from the architecture books), but the field layout
// follows the PowerPC manual so the encoder/decoder exercises the same
// kinds of bit surgery a real implementation would:
//
//	D-form:  opcd:6 | rt:5 | ra:5  | d:16             (immediates, disp loads/stores)
//	I-form:  opcd:6 | li:24 | aa:1 | lk:1             (b, bl)
//	B-form:  opcd:6 | bo:5 | bi:5  | bd:14 | aa:1 | lk:1  (bc, bdnz)
//	X-form:  opcd:6 | rt:5 | ra:5  | rb:5  | xo:10 | rc:1 (register-register, escape opcd 31)
//	A-form:  opcd:6 | rt:5 | ra:5  | rb:5  | bc:5  | xo:5 | rc:1 (isel, escape opcd 30)
//
// The paper's hypothetical max instruction is given XO 543 under the
// X-form escape — an opcode/XO combination unused by the real POWER ISA,
// matching the paper's "we selected an unused PowerPC primary and
// extended opcode combination".
const (
	opcdXForm = 31 // X-form escape primary opcode
	opcdAForm = 30 // A-form escape primary opcode (isel)
	opcdB     = 18 // I-form branch
	opcdBc    = 16 // B-form conditional branch

	xoMax = 543 // the paper's max instruction
)

type encForm uint8

const (
	formD encForm = iota
	formI
	formB
	formX
	formA
)

type encEntry struct {
	form encForm
	opcd uint32 // primary opcode (D/I/B forms)
	xo   uint32 // extended opcode (X/A forms)
}

// encTable maps each Op to its encoding.  D-form primary opcodes are
// assigned in the 1..29 and 32..62 ranges; X-form operations share
// primary opcode 31 and are distinguished by XO.
var encTable = map[Op]encEntry{
	OpAddi:   {form: formD, opcd: 14},
	OpAddis:  {form: formD, opcd: 15},
	OpMulli:  {form: formD, opcd: 7},
	OpAndi:   {form: formD, opcd: 28},
	OpOri:    {form: formD, opcd: 24},
	OpXori:   {form: formD, opcd: 26},
	OpCmpdi:  {form: formD, opcd: 11},
	OpCmpldi: {form: formD, opcd: 10},
	OpSldi:   {form: formD, opcd: 21},
	OpSrdi:   {form: formD, opcd: 22},
	OpSradi:  {form: formD, opcd: 23},

	OpLbz: {form: formD, opcd: 34},
	OpLhz: {form: formD, opcd: 40},
	OpLha: {form: formD, opcd: 42},
	OpLwz: {form: formD, opcd: 32},
	OpLwa: {form: formD, opcd: 33},
	OpLd:  {form: formD, opcd: 58},
	OpStb: {form: formD, opcd: 38},
	OpSth: {form: formD, opcd: 44},
	OpStw: {form: formD, opcd: 36},
	OpStd: {form: formD, opcd: 62},

	OpB:    {form: formI, opcd: opcdB},
	OpBc:   {form: formB, opcd: opcdBc},
	OpBdnz: {form: formB, opcd: opcdBc},

	OpAdd:   {form: formX, xo: 266},
	OpSubf:  {form: formX, xo: 40},
	OpNeg:   {form: formX, xo: 104},
	OpMulld: {form: formX, xo: 233},
	OpDivd:  {form: formX, xo: 489},
	OpAnd:   {form: formX, xo: 28},
	OpOr:    {form: formX, xo: 444},
	OpXor:   {form: formX, xo: 316},
	OpSld:   {form: formX, xo: 27},
	OpSrd:   {form: formX, xo: 539},
	OpSrad:  {form: formX, xo: 794},
	OpExtsb: {form: formX, xo: 954},
	OpExtsh: {form: formX, xo: 922},
	OpExtsw: {form: formX, xo: 986},
	OpMax:   {form: formX, xo: xoMax},
	OpCmpd:  {form: formX, xo: 0},
	OpCmpld: {form: formX, xo: 32},
	OpLbzx:  {form: formX, xo: 87},
	OpLhzx:  {form: formX, xo: 279},
	OpLhax:  {form: formX, xo: 343},
	OpLwzx:  {form: formX, xo: 23},
	OpLwax:  {form: formX, xo: 341},
	OpLdx:   {form: formX, xo: 21},
	OpStbx:  {form: formX, xo: 215},
	OpSthx:  {form: formX, xo: 407},
	OpStwx:  {form: formX, xo: 151},
	OpStdx:  {form: formX, xo: 149},
	OpMtlr:  {form: formX, xo: 467},
	OpMflr:  {form: formX, xo: 339},
	OpMtctr: {form: formX, xo: 468},
	OpMfctr: {form: formX, xo: 340},
	OpBlr:   {form: formX, xo: 16},
	OpNop:   {form: formX, xo: 1023},

	OpIsel: {form: formA, xo: 15},
}

// decD maps D/I/B-form primary opcodes back to operations.
var decD map[uint32]Op

// decX maps X-form extended opcodes back to operations.
var decX map[uint32]Op

func init() {
	decD = make(map[uint32]Op)
	decX = make(map[uint32]Op)
	for op, e := range encTable {
		switch e.form {
		case formD, formI:
			decD[e.opcd] = op
		case formX:
			decX[e.xo] = op
		}
	}
}

func fits16s(v int64) bool { return v >= -0x8000 && v <= 0x7FFF }
func fits16u(v int64) bool { return v >= 0 && v <= 0xFFFF }
func fits24s(v int64) bool { return v >= -(1<<23) && v < (1<<23) }
func fits14s(v int64) bool { return v >= -(1<<13) && v < (1<<13) }

// Encode converts the instruction at program index idx into its 32-bit
// word.  Branch targets are encoded as signed instruction-count
// displacements relative to idx.
func Encode(ins *Instruction, idx int) (uint32, error) {
	if err := ins.Validate(); err != nil {
		return 0, err
	}
	e, ok := encTable[ins.Op]
	if !ok {
		return 0, fmt.Errorf("isa: no encoding for %s", ins.Op)
	}
	switch e.form {
	case formD:
		imm := ins.Imm
		var immOK bool
		switch ins.Op {
		case OpAndi, OpOri, OpXori, OpCmpldi:
			immOK = fits16u(imm)
		case OpSldi, OpSrdi, OpSradi:
			immOK = imm >= 0 && imm < 64
		default:
			immOK = fits16s(imm)
		}
		if !immOK {
			return 0, fmt.Errorf("isa: %s: immediate %d out of range", ins.Op, imm)
		}
		rt := uint32(ins.RT)
		if ins.Op.Info().Compare {
			rt = uint32(ins.CRF-CR0) << 2 // crf in high bits of the RT slot
		}
		return e.opcd<<26 | rt<<21 | uint32(ins.RA)<<16 | uint32(uint16(imm)), nil

	case formI:
		disp := int64(ins.Target - idx)
		if !fits24s(disp) {
			return 0, fmt.Errorf("isa: b: displacement %d out of range", disp)
		}
		lk := uint32(0)
		if ins.ImmLK() {
			lk = 1
		}
		return e.opcd<<26 | (uint32(disp)&0xFFFFFF)<<2 | lk, nil

	case formB:
		disp := int64(ins.Target - idx)
		if !fits14s(disp) {
			return 0, fmt.Errorf("isa: %s: displacement %d out of range", ins.Op, disp)
		}
		var bo, bi uint32
		if ins.Op == OpBdnz {
			bo = 16
		} else {
			bo = 4 // branch if bit clear
			if ins.Want {
				bo = 12 // branch if bit set
			}
			bi = uint32(ins.CRF-CR0)<<2 | uint32(ins.Bit)
		}
		return e.opcd<<26 | bo<<21 | bi<<16 | (uint32(disp)&0x3FFF)<<2, nil

	case formX:
		rt := uint32(ins.RT)
		if ins.RT == NoReg {
			rt = 0
		}
		if ins.Op.Info().Compare {
			rt = uint32(ins.CRF-CR0) << 2
		}
		ra, rb := uint32(ins.RA), uint32(ins.RB)
		if ins.RA == NoReg {
			ra = 0
		}
		if ins.RB == NoReg {
			rb = 0
		}
		return uint32(opcdXForm)<<26 | rt<<21 | ra<<16 | rb<<11 | e.xo<<1, nil

	case formA:
		bc := uint32(ins.CRF-CR0)<<2 | uint32(ins.Bit)
		return uint32(opcdAForm)<<26 | uint32(ins.RT)<<21 | uint32(ins.RA)<<16 |
			uint32(ins.RB)<<11 | bc<<6 | e.xo<<1, nil
	}
	return 0, fmt.Errorf("isa: unknown form for %s", ins.Op)
}

func signExt(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode converts a 32-bit instruction word at program index idx back
// into an Instruction.  It is the exact inverse of Encode: a word Encode
// never writes (a stray bit, an unused BO, a shift Encode rejects) is an
// error.
func Decode(word uint32, idx int) (Instruction, error) {
	ins, err := decode(word, idx)
	if err != nil {
		return Instruction{}, err
	}
	if back, err := Encode(&ins, idx); err != nil || back != word {
		return Instruction{}, fmt.Errorf("isa: decode: %#08x is not the encoding of any instruction", word)
	}
	return ins, nil
}

// decode reads a word's fields without checking that it is canonical.
func decode(word uint32, idx int) (Instruction, error) {
	opcd := word >> 26
	switch opcd {
	case opcdXForm:
		xo := (word >> 1) & 0x3FF
		op, ok := decX[xo]
		if !ok {
			return Instruction{}, fmt.Errorf("isa: decode: unknown X-form xo %d", xo)
		}
		ins := Instruction{
			Op: op,
			RT: Reg(word >> 21 & 31),
			RA: Reg(word >> 16 & 31),
			RB: Reg(word >> 11 & 31),
		}
		if op.Info().Compare {
			ins.CRF = CR0 + Reg(word>>23&7)
			ins.RT = NoReg
		}
		switch op {
		case OpBlr, OpNop:
			ins.RT, ins.RA, ins.RB = NoReg, NoReg, NoReg
		case OpNeg, OpExtsb, OpExtsh, OpExtsw:
			ins.RB = NoReg
		case OpMtlr, OpMtctr:
			ins.RT, ins.RB = NoReg, NoReg
		case OpMflr, OpMfctr:
			ins.RA, ins.RB = NoReg, NoReg
		}
		return ins, nil

	case opcdAForm:
		bc := word >> 6 & 31
		return Instruction{
			Op:  OpIsel,
			RT:  Reg(word >> 21 & 31),
			RA:  Reg(word >> 16 & 31),
			RB:  Reg(word >> 11 & 31),
			CRF: CR0 + Reg(bc>>2),
			Bit: CRBit(bc & 3),
		}, nil

	case opcdB:
		disp := signExt(word>>2&0xFFFFFF, 24)
		return Instruction{
			Op:     OpB,
			Imm:    int64(word & 1),
			Target: idx + int(disp),
		}, nil

	case opcdBc:
		bo := word >> 21 & 31
		bi := word >> 16 & 31
		disp := signExt(word>>2&0x3FFF, 14)
		if bo == 16 {
			return Instruction{Op: OpBdnz, Target: idx + int(disp)}, nil
		}
		return Instruction{
			Op:     OpBc,
			CRF:    CR0 + Reg(bi>>2),
			Bit:    CRBit(bi & 3),
			Want:   bo == 12,
			Target: idx + int(disp),
		}, nil
	}

	op, ok := decD[opcd]
	if !ok {
		return Instruction{}, fmt.Errorf("isa: decode: unknown primary opcode %d", opcd)
	}
	ins := Instruction{
		Op:  op,
		RT:  Reg(word >> 21 & 31),
		RA:  Reg(word >> 16 & 31),
		Imm: signExt(word&0xFFFF, 16),
	}
	switch op {
	case OpAndi, OpOri, OpXori, OpCmpldi, OpSldi, OpSrdi, OpSradi:
		ins.Imm = int64(word & 0xFFFF) // unsigned immediates
	}
	if op.Info().Compare {
		ins.CRF = CR0 + Reg(word>>23&7)
		ins.RT = NoReg
	}
	return ins, nil
}
