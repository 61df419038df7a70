package isa

import (
	"fmt"
	"strings"
)

// Program is an assembled instruction sequence.  Instruction addresses
// are instruction indices; a program loaded at base byte address A
// places instruction i at A + 4*i.
type Program struct {
	Code    []Instruction
	Symbols map[string]int // label -> instruction index
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// Disasm renders the whole program as assembler text with labels.
func (p *Program) Disasm() string {
	labels := make(map[int][]string)
	for name, idx := range p.Symbols {
		labels[idx] = append(labels[idx], name)
	}
	var b strings.Builder
	for i := range p.Code {
		for _, l := range labels[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %4d: %s\n", i, p.Code[i].Disasm())
	}
	return b.String()
}

// EncodeAll encodes every instruction to its 32-bit word.
func (p *Program) EncodeAll() ([]uint32, error) {
	words := make([]uint32, len(p.Code))
	for i := range p.Code {
		w, err := Encode(&p.Code[i], i)
		if err != nil {
			return nil, fmt.Errorf("at %d (%s): %w", i, p.Code[i].Disasm(), err)
		}
		words[i] = w
	}
	return words, nil
}

// DecodeAll is the inverse of EncodeAll (symbol names are not
// recoverable from machine code and are left empty).
func DecodeAll(words []uint32) (*Program, error) {
	p := &Program{Code: make([]Instruction, len(words)), Symbols: map[string]int{}}
	for i, w := range words {
		ins, err := Decode(w, i)
		if err != nil {
			return nil, fmt.Errorf("at %d: %w", i, err)
		}
		p.Code[i] = ins
	}
	return p, nil
}

// Asm is an incremental assembler: instructions are emitted in order,
// labels may be defined and referenced in any order, and Finish resolves
// all fixups.
type Asm struct {
	code   []Instruction
	labels map[string]int
	fixups []fixup
	errs   []error
}

type fixup struct {
	at    int
	label string
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

// Label defines name at the current position.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("isa: duplicate label %q", name))
		return
	}
	a.labels[name] = len(a.code)
}

// Emit appends a raw instruction.
func (a *Asm) Emit(ins Instruction) {
	a.code = append(a.code, ins)
}

// Branch emits a branch instruction targeting label.
func (a *Asm) Branch(ins Instruction, label string) {
	a.fixups = append(a.fixups, fixup{at: len(a.code), label: label})
	a.code = append(a.code, ins)
}

// Convenience emitters used by the code generator and by tests.

// Li loads a 16-bit signed immediate into rt.
func (a *Asm) Li(rt Reg, v int64) { a.Emit(Instruction{Op: OpAddi, RT: rt, RA: R0, Imm: v}) }

// Li64 materializes an arbitrary 64-bit constant using addis/ori/sldi
// sequences (1 to 5 instructions).
func (a *Asm) Li64(rt Reg, v int64) {
	if v >= -0x8000 && v <= 0x7FFF {
		a.Li(rt, v)
		return
	}
	// Build the upper bits recursively, shift left 16, then OR in the
	// next 16-bit chunk.  v>>16 converges to 0 or -1, both of which fit
	// the 16-bit base case, so the recursion terminates.
	a.Li64(rt, v>>16)
	a.Emit(Instruction{Op: OpSldi, RT: rt, RA: rt, Imm: 16})
	if lo := v & 0xFFFF; lo != 0 {
		a.Emit(Instruction{Op: OpOri, RT: rt, RA: rt, Imm: lo})
	}
}

// Mr emits a register move (or rt, ra, ra).
func (a *Asm) Mr(rt, ra Reg) { a.Emit(Instruction{Op: OpOr, RT: rt, RA: ra, RB: ra}) }

// Ret emits a function return.
func (a *Asm) Ret() { a.Emit(Instruction{Op: OpBlr}) }

// Finish resolves fixups and returns the assembled program.
func (a *Asm) Finish() (*Program, error) {
	for _, f := range a.fixups {
		idx, ok := a.labels[f.label]
		if !ok {
			a.errs = append(a.errs, fmt.Errorf("isa: undefined label %q", f.label))
			continue
		}
		a.code[f.at].Target = idx
	}
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	p := &Program{Code: a.code, Symbols: a.labels}
	for i := range p.Code {
		if err := p.Code[i].Validate(); err != nil {
			return nil, fmt.Errorf("at %d: %w", i, err)
		}
	}
	return p, nil
}
