// Package machine implements the functional (architectural) simulator
// for the isa subset: it executes programs instruction by instruction,
// maintaining registers, condition fields and big-endian memory, and
// emits a dynamic instruction record per step.  The cycle-approximate
// POWER5 timing model in package cpu consumes that record stream
// (trace-driven simulation), so functional correctness and timing are
// cleanly separated — the same split SystemSim-style full-system
// simulators use between their functional and performance models.
package machine

import (
	"errors"
	"fmt"

	"bioperf5/internal/isa"
	"bioperf5/internal/mem"
)

// haltLR is the sentinel link-register value that terminates execution
// when returned to via blr.
const haltLR = ^uint64(0)

// ErrLimit is returned by Run when the step budget is exhausted before
// the program halts.
var ErrLimit = errors.New("machine: step limit exceeded")

// DynInst is one dynamically executed instruction — the unit of the
// trace consumed by the timing model.
type DynInst struct {
	Index int              // static instruction index (the PC)
	Ins   *isa.Instruction // decoded instruction (points into the program)
	Taken bool             // branches: whether the branch was taken
	Next  int              // index of the next instruction executed
	EA    uint64           // loads/stores: effective address
	Size  int              // loads/stores: access size in bytes
}

// Machine is the architectural state of one hardware thread.
type Machine struct {
	Prog *isa.Program
	Mem  *mem.Memory

	regs [isa.NumRegs]uint64
	pc   int
	halt bool

	steps uint64
}

// New returns a machine ready to execute prog with the given memory.
// The link register is initialized to the halt sentinel so a top-level
// blr ends execution.
func New(prog *isa.Program, memory *mem.Memory) *Machine {
	m := &Machine{Prog: prog, Mem: memory}
	m.regs[isa.LR] = haltLR
	return m
}

// Reset rewinds architectural state (memory is left untouched).
func (m *Machine) Reset() {
	m.regs = [isa.NumRegs]uint64{}
	m.regs[isa.LR] = haltLR
	m.pc = 0
	m.halt = false
	m.steps = 0
}

// SetPC positions execution at the instruction index of label.
func (m *Machine) SetPC(label string) error {
	idx, ok := m.Prog.Symbols[label]
	if !ok {
		return fmt.Errorf("machine: undefined entry label %q", label)
	}
	m.pc = idx
	return nil
}

// Reg returns the value of r.
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// SetReg sets r to v (used to pass arguments in r3..r10 per the ABI).
func (m *Machine) SetReg(r isa.Reg, v uint64) { m.regs[r] = v }

// Halted reports whether the program has returned to the halt sentinel.
func (m *Machine) Halted() bool { return m.halt }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

func (m *Machine) crBit(crf isa.Reg, bit isa.CRBit) bool {
	return m.regs[crf]&(1<<bit) != 0
}

func (m *Machine) setCmp(crf isa.Reg, lt, gt bool) {
	var v uint64
	switch {
	case lt:
		v = 1 << isa.CRLT
	case gt:
		v = 1 << isa.CRGT
	default:
		v = 1 << isa.CREQ
	}
	m.regs[crf] = v
}

// Step executes one instruction and returns its dynamic record.
// Calling Step on a halted machine returns an error.
func (m *Machine) Step() (DynInst, error) {
	if m.halt {
		return DynInst{}, errors.New("machine: step on halted machine")
	}
	if m.pc < 0 || m.pc >= len(m.Prog.Code) {
		return DynInst{}, fmt.Errorf("machine: pc %d out of program bounds", m.pc)
	}
	ins := &m.Prog.Code[m.pc]
	d := DynInst{Index: m.pc, Ins: ins}
	next := m.pc + 1
	r := &m.regs

	switch ins.Op {
	case isa.OpAdd:
		r[ins.RT] = r[ins.RA] + r[ins.RB]
	case isa.OpAddi:
		base := uint64(0)
		if ins.RA != isa.R0 {
			base = r[ins.RA]
		}
		r[ins.RT] = base + uint64(ins.Imm)
	case isa.OpAddis:
		base := uint64(0)
		if ins.RA != isa.R0 {
			base = r[ins.RA]
		}
		r[ins.RT] = base + uint64(ins.Imm<<16)
	case isa.OpSubf:
		r[ins.RT] = r[ins.RB] - r[ins.RA]
	case isa.OpNeg:
		r[ins.RT] = -r[ins.RA]
	case isa.OpMulld:
		r[ins.RT] = r[ins.RA] * r[ins.RB]
	case isa.OpMulli:
		r[ins.RT] = r[ins.RA] * uint64(ins.Imm)
	case isa.OpDivd:
		if r[ins.RB] == 0 {
			r[ins.RT] = 0
		} else {
			r[ins.RT] = uint64(int64(r[ins.RA]) / int64(r[ins.RB]))
		}
	case isa.OpAnd:
		r[ins.RT] = r[ins.RA] & r[ins.RB]
	case isa.OpAndi:
		r[ins.RT] = r[ins.RA] & uint64(ins.Imm)
	case isa.OpOr:
		r[ins.RT] = r[ins.RA] | r[ins.RB]
	case isa.OpOri:
		r[ins.RT] = r[ins.RA] | uint64(ins.Imm)
	case isa.OpXor:
		r[ins.RT] = r[ins.RA] ^ r[ins.RB]
	case isa.OpXori:
		r[ins.RT] = r[ins.RA] ^ uint64(ins.Imm)
	case isa.OpSld:
		if sh := r[ins.RB] & 127; sh >= 64 {
			r[ins.RT] = 0
		} else {
			r[ins.RT] = r[ins.RA] << sh
		}
	case isa.OpSrd:
		if sh := r[ins.RB] & 127; sh >= 64 {
			r[ins.RT] = 0
		} else {
			r[ins.RT] = r[ins.RA] >> sh
		}
	case isa.OpSrad:
		sh := r[ins.RB] & 127
		if sh >= 64 {
			sh = 63
		}
		r[ins.RT] = uint64(int64(r[ins.RA]) >> sh)
	case isa.OpSldi:
		r[ins.RT] = r[ins.RA] << uint(ins.Imm)
	case isa.OpSrdi:
		r[ins.RT] = r[ins.RA] >> uint(ins.Imm)
	case isa.OpSradi:
		r[ins.RT] = uint64(int64(r[ins.RA]) >> uint(ins.Imm))
	case isa.OpExtsb:
		r[ins.RT] = uint64(int64(int8(r[ins.RA])))
	case isa.OpExtsh:
		r[ins.RT] = uint64(int64(int16(r[ins.RA])))
	case isa.OpExtsw:
		r[ins.RT] = uint64(int64(int32(r[ins.RA])))

	case isa.OpMax:
		a, b := int64(r[ins.RA]), int64(r[ins.RB])
		if a >= b {
			r[ins.RT] = uint64(a)
		} else {
			r[ins.RT] = uint64(b)
		}
	case isa.OpIsel:
		if m.crBit(ins.CRF, ins.Bit) {
			r[ins.RT] = r[ins.RA]
		} else {
			r[ins.RT] = r[ins.RB]
		}

	case isa.OpCmpd:
		a, b := int64(r[ins.RA]), int64(r[ins.RB])
		m.setCmp(ins.CRF, a < b, a > b)
	case isa.OpCmpdi:
		a := int64(r[ins.RA])
		m.setCmp(ins.CRF, a < ins.Imm, a > ins.Imm)
	case isa.OpCmpld:
		a, b := r[ins.RA], r[ins.RB]
		m.setCmp(ins.CRF, a < b, a > b)
	case isa.OpCmpldi:
		a, b := r[ins.RA], uint64(ins.Imm)
		m.setCmp(ins.CRF, a < b, a > b)

	case isa.OpB:
		if ins.ImmLK() {
			r[isa.LR] = uint64(m.pc + 1)
		}
		d.Taken = true
		next = ins.Target
	case isa.OpBc:
		if m.crBit(ins.CRF, ins.Bit) == ins.Want {
			d.Taken = true
			next = ins.Target
		}
	case isa.OpBdnz:
		r[isa.CTR]--
		if r[isa.CTR] != 0 {
			d.Taken = true
			next = ins.Target
		}
	case isa.OpBlr:
		d.Taken = true
		if r[isa.LR] == haltLR {
			m.halt = true
			next = m.pc // no successor; Next is meaningless after halt
		} else {
			next = int(r[isa.LR])
		}

	case isa.OpLbz, isa.OpLbzx:
		d.EA, d.Size = m.ea(ins), 1
		r[ins.RT] = m.Mem.ReadUint(d.EA, 1)
	case isa.OpLhz, isa.OpLhzx:
		d.EA, d.Size = m.ea(ins), 2
		r[ins.RT] = m.Mem.ReadUint(d.EA, 2)
	case isa.OpLha, isa.OpLhax:
		d.EA, d.Size = m.ea(ins), 2
		r[ins.RT] = uint64(m.Mem.ReadInt(d.EA, 2))
	case isa.OpLwz, isa.OpLwzx:
		d.EA, d.Size = m.ea(ins), 4
		r[ins.RT] = m.Mem.ReadUint(d.EA, 4)
	case isa.OpLwa, isa.OpLwax:
		d.EA, d.Size = m.ea(ins), 4
		r[ins.RT] = uint64(m.Mem.ReadInt(d.EA, 4))
	case isa.OpLd, isa.OpLdx:
		d.EA, d.Size = m.ea(ins), 8
		r[ins.RT] = m.Mem.ReadUint(d.EA, 8)

	case isa.OpStb, isa.OpStbx:
		d.EA, d.Size = m.ea(ins), 1
		m.Mem.WriteUint(d.EA, 1, r[ins.RT])
	case isa.OpSth, isa.OpSthx:
		d.EA, d.Size = m.ea(ins), 2
		m.Mem.WriteUint(d.EA, 2, r[ins.RT])
	case isa.OpStw, isa.OpStwx:
		d.EA, d.Size = m.ea(ins), 4
		m.Mem.WriteUint(d.EA, 4, r[ins.RT])
	case isa.OpStd, isa.OpStdx:
		d.EA, d.Size = m.ea(ins), 8
		m.Mem.WriteUint(d.EA, 8, r[ins.RT])

	case isa.OpMtlr:
		r[isa.LR] = r[ins.RA]
	case isa.OpMflr:
		r[ins.RT] = r[isa.LR]
	case isa.OpMtctr:
		r[isa.CTR] = r[ins.RA]
	case isa.OpMfctr:
		r[ins.RT] = r[isa.CTR]
	case isa.OpNop:
		// nothing
	default:
		return DynInst{}, fmt.Errorf("machine: unimplemented op %s at %d", ins.Op, m.pc)
	}

	d.Next = next
	m.pc = next
	m.steps++
	return d, nil
}

// ea computes the effective address of a load or store.
func (m *Machine) ea(ins *isa.Instruction) uint64 {
	base := m.regs[ins.RA]
	switch ins.Op {
	case isa.OpLbzx, isa.OpLhzx, isa.OpLhax, isa.OpLwzx, isa.OpLwax,
		isa.OpLdx, isa.OpStbx, isa.OpSthx, isa.OpStwx, isa.OpStdx:
		return base + m.regs[ins.RB]
	}
	return base + uint64(ins.Imm)
}

// Run executes until the program halts or limit instructions have been
// executed; it reports the number of instructions executed.
func (m *Machine) Run(limit uint64) (uint64, error) {
	var n uint64
	for !m.halt {
		if n >= limit {
			return n, ErrLimit
		}
		if _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Call is a convenience that resets the machine, loads up to 8 integer
// arguments into r3..r10 (the PowerPC ELF ABI argument registers), runs
// the function at label, and returns the value left in r3.
func (m *Machine) Call(label string, limit uint64, args ...uint64) (uint64, error) {
	if len(args) > 8 {
		return 0, fmt.Errorf("machine: too many arguments (%d)", len(args))
	}
	m.Reset()
	if err := m.SetPC(label); err != nil {
		return 0, err
	}
	// A small stack high in memory; kernels are leaf functions and use
	// only a few spill slots.
	m.regs[isa.SP] = 0x7FFF0000
	for i, a := range args {
		m.regs[isa.R3+isa.Reg(i)] = a
	}
	if _, err := m.Run(limit); err != nil {
		return 0, err
	}
	return m.regs[isa.R3], nil
}
