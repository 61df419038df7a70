// Package compiler lowers IR functions (package ir) to the PPC subset
// (package isa).  Its centerpiece is the if-conversion pass modelled on
// the one the paper added to gcc 4.1.1 (Section IV-B): control-flow
// hammocks whose arms are side-effect free — and whose loads are
// provably safe and unaliased — are rewritten into select/max data flow,
// which later lowers to the paper's isel or max instructions.
package compiler

import (
	"fmt"

	"bioperf5/internal/ir"
)

// removeUnreachable drops blocks with no path from the entry.
func removeUnreachable(f *ir.Func) {
	reach := map[*ir.Block]bool{f.Entry(): true}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			b.ID = len(kept)
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}

// hoistConsts moves every constant definition to the entry block,
// deduplicated by value, so loop bodies do not rematerialize constants
// each iteration.  Constants are pure, so the motion is always legal;
// each constant gets a fresh register and uses are renamed, which keeps
// the original registers' single-assignment-per-path structure intact.
func hoistConsts(f *ir.Func) {
	byValue := make(map[int64]ir.Reg)
	var hoisted []ir.Instr
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst {
				r, ok := byValue[in.Imm]
				if !ok {
					r = f.NewReg()
					byValue[in.Imm] = r
					hoisted = append(hoisted, ir.Instr{Op: ir.OpConst, Dst: r, Imm: in.Imm})
				}
				// The original register may be reassigned elsewhere
				// (it is a mutable vreg), so keep a copy if anything
				// other than this definition could matter.  A copy is
				// cheap and copyProp removes it when redundant.
				out = append(out, ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: r})
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	if len(hoisted) == 0 {
		return
	}
	entry := f.Entry()
	entry.Instrs = append(hoisted, entry.Instrs...)
}

// hoistArgs canonicalizes argument reads: every OpArg anywhere in the
// function is replaced by a copy from a single canonical per-index
// OpArg placed at the very start of the entry block.  Semantically an
// OpArg reads the immutable incoming argument, so the motion is always
// legal; physically it guarantees the incoming argument registers are
// read before anything else (hoisted constants, spills) can clobber
// them.
func hoistArgs(f *ir.Func) {
	canon := make(map[int64]ir.Reg, f.NArgs)
	var prologue []ir.Instr
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpArg {
				continue
			}
			r, ok := canon[in.Imm]
			if !ok {
				r = f.NewReg()
				canon[in.Imm] = r
				prologue = append(prologue, ir.Instr{Op: ir.OpArg, Dst: r, Imm: in.Imm})
			}
			*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: r}
		}
	}
	if len(prologue) > 0 {
		entry := f.Entry()
		entry.Instrs = append(prologue, entry.Instrs...)
	}
}

// copyProp forwards sources of copies to their uses within each block
// when neither side is redefined in between (a conservative, local
// pass; enough to clean up after hoistConsts and if-conversion).
func copyProp(f *ir.Func) {
	for _, b := range f.Blocks {
		alias := make(map[ir.Reg]ir.Reg)
		resolve := func(r ir.Reg) ir.Reg {
			for {
				a, ok := alias[r]
				if !ok {
					return r
				}
				r = a
			}
		}
		kill := func(r ir.Reg) {
			delete(alias, r)
			for k, v := range alias {
				if v == r {
					delete(alias, k)
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.A != ir.NoReg {
				in.A = resolve(in.A)
			}
			if in.B != ir.NoReg {
				in.B = resolve(in.B)
			}
			if in.C != ir.NoReg {
				in.C = resolve(in.C)
			}
			if in.D != ir.NoReg {
				in.D = resolve(in.D)
			}
			if in.Dst != ir.NoReg {
				kill(in.Dst)
				if in.Op == ir.OpCopy && in.A != in.Dst {
					alias[in.Dst] = in.A
				}
			}
		}
		t := &b.Term
		if t.Kind == ir.TermCondBr || t.Kind == ir.TermRet {
			if t.A != ir.NoReg {
				t.A = resolve(t.A)
			}
		}
		if t.Kind == ir.TermCondBr && t.B != ir.NoReg {
			t.B = resolve(t.B)
		}
	}
}

// foldImmediates rewrites binary operations whose right-hand side is a
// single-definition constant into immediate-form operations (the PPC
// D-form instructions), and conditional branches against constants into
// compare-immediate terminators.  This removes most constants from the
// register allocation problem — exactly what a real PPC compiler does.
func foldImmediates(f *ir.Func) {
	defs := make(map[ir.Reg]int)
	consts := make(map[ir.Reg]int64)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoReg {
				continue
			}
			defs[in.Dst]++
			if in.Op == ir.OpConst {
				consts[in.Dst] = in.Imm
			}
		}
	}
	constOf := func(r ir.Reg) (int64, bool) {
		if r == ir.NoReg || defs[r] != 1 {
			return 0, false
		}
		v, ok := consts[r]
		return v, ok
	}
	fits16s := func(v int64) bool { return v >= -0x8000 && v <= 0x7FFF }
	fits16u := func(v int64) bool { return v >= 0 && v <= 0xFFFF }

	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			vb, okB := constOf(in.B)
			va, okA := constOf(in.A)
			switch in.Op {
			case ir.OpAdd:
				switch {
				case okB && fits16s(vb):
					*in = ir.Instr{Op: ir.OpAddImm, Dst: in.Dst, A: in.A, Imm: vb}
				case okA && fits16s(va):
					*in = ir.Instr{Op: ir.OpAddImm, Dst: in.Dst, A: in.B, Imm: va}
				}
			case ir.OpSub:
				if okB && fits16s(-vb) {
					*in = ir.Instr{Op: ir.OpAddImm, Dst: in.Dst, A: in.A, Imm: -vb}
				}
			case ir.OpMul:
				switch {
				case okB && fits16s(vb):
					*in = ir.Instr{Op: ir.OpMulImm, Dst: in.Dst, A: in.A, Imm: vb}
				case okA && fits16s(va):
					*in = ir.Instr{Op: ir.OpMulImm, Dst: in.Dst, A: in.B, Imm: va}
				}
			case ir.OpAnd:
				if okB && fits16u(vb) {
					*in = ir.Instr{Op: ir.OpAndImm, Dst: in.Dst, A: in.A, Imm: vb}
				}
			case ir.OpOr:
				if okB && fits16u(vb) {
					*in = ir.Instr{Op: ir.OpOrImm, Dst: in.Dst, A: in.A, Imm: vb}
				}
			case ir.OpXor:
				if okB && fits16u(vb) {
					*in = ir.Instr{Op: ir.OpXorImm, Dst: in.Dst, A: in.A, Imm: vb}
				}
			case ir.OpShl:
				if okB && vb >= 0 && vb < 64 {
					*in = ir.Instr{Op: ir.OpShlImm, Dst: in.Dst, A: in.A, Imm: vb}
				}
			case ir.OpShr:
				if okB && vb >= 0 && vb < 64 {
					*in = ir.Instr{Op: ir.OpShrImm, Dst: in.Dst, A: in.A, Imm: vb}
				}
			case ir.OpSar:
				if okB && vb >= 0 && vb < 64 {
					*in = ir.Instr{Op: ir.OpSarImm, Dst: in.Dst, A: in.A, Imm: vb}
				}
			}
		}
		if t := &b.Term; t.Kind == ir.TermCondBr && t.B != ir.NoReg {
			if vb, ok := constOf(t.B); ok && fits16s(vb) {
				t.B = ir.NoReg
				t.BImm = vb
			} else if va, ok := constOf(t.A); ok && fits16s(va) && t.B != ir.NoReg {
				// const OP reg  ==>  reg OP' const with the predicate
				// mirrored across the comparison.
				t.A = t.B
				t.B = ir.NoReg
				t.BImm = va
				t.Cmp = mirrorCmp(t.Cmp)
			}
		}
	}
}

// mirrorCmp swaps the operand roles of a predicate (a OP b == b OP' a).
func mirrorCmp(c ir.CmpKind) ir.CmpKind {
	switch c {
	case ir.CmpLT:
		return ir.CmpGT
	case ir.CmpLE:
		return ir.CmpGE
	case ir.CmpGT:
		return ir.CmpLT
	case ir.CmpGE:
		return ir.CmpLE
	}
	return c // EQ and NE are symmetric
}

// sinkCopies coalesces the `t = op ...; acc = t` pairs that Assign
// produces when t has no other use: the operation writes acc directly
// and the copy disappears.  Without this, every hand-inserted max
// costs an extra register move.
func sinkCopies(f *ir.Func) {
	uses := make(map[ir.Reg]int)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(nil) {
				uses[u]++
			}
		}
		switch b.Term.Kind {
		case ir.TermCondBr:
			uses[b.Term.A]++
			uses[b.Term.B]++
		case ir.TermRet:
			if b.Term.A != ir.NoReg {
				uses[b.Term.A]++
			}
		}
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if i+1 < len(b.Instrs) {
				next := &b.Instrs[i+1]
				if next.Op == ir.OpCopy && in.Dst != ir.NoReg &&
					next.A == in.Dst && uses[in.Dst] == 1 &&
					next.Dst != in.Dst {
					in.Dst = next.Dst
					out = append(out, in)
					i++ // skip the copy
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// dce removes pure instructions whose destination is never read.  It
// iterates to a fixpoint using whole-function use counts; mutable
// registers make a full sparse analysis unnecessary for our kernels.
func dce(f *ir.Func) {
	for {
		used := make(map[ir.Reg]bool)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				for _, u := range b.Instrs[i].Uses(nil) {
					used[u] = true
				}
			}
			if b.Term.Kind == ir.TermCondBr {
				used[b.Term.A] = true
				used[b.Term.B] = true
			}
			if b.Term.Kind == ir.TermRet && b.Term.A != ir.NoReg {
				used[b.Term.A] = true
			}
		}
		removed := false
		for _, b := range f.Blocks {
			out := b.Instrs[:0]
			for _, in := range b.Instrs {
				dead := !in.HasSideEffects() && !used[in.Dst] &&
					// A dead load is removable too: our loads have no
					// side effects (they may fault in principle, but a
					// dead unsafe load only exists if the front end
					// emitted one, which builders never do).
					in.Op != ir.OpInvalid
				if dead {
					removed = true
					continue
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
		if !removed {
			return
		}
	}
}

// maxArmInstrs bounds the number of instructions speculated per arm,
// mirroring the aggressiveness of the paper's modified gcc; beyond it,
// branching is cheaper than predicating.
const maxArmInstrs = 8

// IfConvert rewrites triangle and diamond hammocks into straight-line
// select data flow.  It returns the number of hammocks converted.
//
// Legality follows Section IV-B: an arm may be speculated only when
// every instruction is side-effect free, cheap, and any load is both
// provably non-faulting (Safe) and not aliased by stores between the
// load and its use (NoAlias).  Hammocks failing the test are left
// intact — exactly the cases ("the compiler must make conservative
// assumptions") where the paper's hand-inserted code wins.
func IfConvert(f *ir.Func) int {
	preds := f.Preds()
	converted := 0
	for _, b := range f.Blocks {
		if b.Term.Kind != ir.TermCondBr {
			continue
		}
		t, e := b.Term.Then, b.Term.Else
		switch {
		case t != e && isArm(t, b, preds) && b.Term.Else == jumpTarget(t):
			// Triangle: if (c) { T }; join == Else.
			if !armConvertible(t) {
				continue
			}
			condSelects(f, b, b.Term, []*ir.Block{t}, nil, jumpTarget(t))
			converted++
		case t != e && isArm(t, b, preds) && isArm(e, b, preds) &&
			jumpTarget(t) != nil && jumpTarget(t) == jumpTarget(e):
			// Diamond: if (c) { T } else { E }.
			if !armConvertible(t) || !armConvertible(e) {
				continue
			}
			condSelects(f, b, b.Term, []*ir.Block{t}, []*ir.Block{e}, jumpTarget(t))
			converted++
		case t != e && isArm(e, b, preds) && b.Term.Then == jumpTarget(e):
			// Inverted triangle: if (!c) { E }; join == Then.
			if !armConvertible(e) {
				continue
			}
			neg := b.Term
			neg.Cmp = neg.Cmp.Negate()
			condSelects(f, b, neg, []*ir.Block{e}, nil, jumpTarget(e))
			converted++
		}
	}
	if converted > 0 {
		removeUnreachable(f)
	}
	return converted
}

// isArm reports whether x is a single-predecessor straight-line block
// hanging off b.
func isArm(x, b *ir.Block, preds map[*ir.Block][]*ir.Block) bool {
	p := preds[x]
	return len(p) == 1 && p[0] == b && x.Term.Kind == ir.TermJump
}

// jumpTarget returns the jump destination of a straight-line block.
func jumpTarget(x *ir.Block) *ir.Block {
	if x.Term.Kind == ir.TermJump {
		return x.Term.Then
	}
	return nil
}

// armConvertible applies the Section IV-B legality rules to one arm.
// Loads may be speculated, as the paper's compiler does, when marked
// Safe and NoAlias.
func armConvertible(x *ir.Block) bool {
	if len(x.Instrs) == 0 || len(x.Instrs) > maxArmInstrs {
		return false
	}
	for i := range x.Instrs {
		in := &x.Instrs[i]
		switch {
		case in.HasSideEffects():
			return false // stores cannot be speculated
		case in.Op == ir.OpDiv:
			return false // too expensive to speculate
		case in.IsLoad():
			if !in.Safe || !in.NoAlias {
				return false
			}
		}
	}
	return true
}

// condSelects flattens the given arms into b, emitting select
// instructions for every register the arms assign, and reroutes b to
// join.  The terminator condition cond decides in favour of the first
// arm list.
func condSelects(f *ir.Func, b *ir.Block, cond ir.Term, thenArm, elseArm []*ir.Block, join *ir.Block) {
	cloneArm := func(arm []*ir.Block) map[ir.Reg]ir.Reg {
		final := make(map[ir.Reg]ir.Reg)
		for _, blk := range arm {
			for _, in := range blk.Instrs {
				c := in
				remap := func(r ir.Reg) ir.Reg {
					if nr, ok := final[r]; ok {
						return nr
					}
					return r
				}
				if c.A != ir.NoReg {
					c.A = remap(c.A)
				}
				if c.B != ir.NoReg {
					c.B = remap(c.B)
				}
				if c.C != ir.NoReg {
					c.C = remap(c.C)
				}
				if c.D != ir.NoReg {
					c.D = remap(c.D)
				}
				if c.Dst != ir.NoReg {
					fresh := f.NewReg()
					final[c.Dst] = fresh
					c.Dst = fresh
				}
				b.Instrs = append(b.Instrs, c)
			}
		}
		return final
	}
	finalT := cloneArm(thenArm)
	finalE := cloneArm(elseArm)

	assigned := make(map[ir.Reg]bool)
	var order []ir.Reg
	collect := func(m map[ir.Reg]ir.Reg, arm []*ir.Block) {
		// Walk the arm in program order so select emission is
		// deterministic.
		for _, blk := range arm {
			for i := range blk.Instrs {
				d := blk.Instrs[i].Dst
				if d == ir.NoReg {
					continue
				}
				if _, ok := m[d]; ok && !assigned[d] {
					assigned[d] = true
					order = append(order, d)
				}
			}
		}
	}
	collect(finalT, thenArm)
	collect(finalE, elseArm)

	for _, r := range order {
		tv, ok := finalT[r]
		if !ok {
			tv = r
		}
		ev, ok := finalE[r]
		if !ok {
			ev = r
		}
		b.Instrs = append(b.Instrs, ir.Instr{
			Op: ir.OpSelect, Dst: r, Cmp: cond.Cmp,
			A: cond.A, B: cond.B, C: tv, D: ev,
		})
	}
	b.Term = ir.Term{Kind: ir.TermJump, Then: join}
}

// foldMaxPatterns rewrites selects that compute a maximum into the
// OpMax form: select(a>b, a, b), select(a>=b, a, b), select(a<b, b, a)
// and select(a<=b, b, a) are all max(a, b).  This is the pattern
// matcher of Section IV-B ("the if-conversion transformation simply
// identifies common code patterns ... such as min, max").
func foldMaxPatterns(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpSelect {
				continue
			}
			isMax := (in.Cmp == ir.CmpGT || in.Cmp == ir.CmpGE) && in.C == in.A && in.D == in.B ||
				(in.Cmp == ir.CmpLT || in.Cmp == ir.CmpLE) && in.C == in.B && in.D == in.A
			if isMax {
				*in = ir.Instr{Op: ir.OpMax, Dst: in.Dst, A: in.A, B: in.B}
				n++
			}
		}
	}
	return n
}

// lowerForTarget rewrites predicated operations the target lacks.
//
//   - OpMax without a max instruction becomes OpSelect (if isel exists)
//     or a branch hammock (plain POWER5).
//   - OpSelect without isel becomes a branch hammock.
//
// Branch expansion splits blocks, so it runs before register
// allocation.
func lowerForTarget(f *ir.Func, tgt Target) error {
	if !tgt.HasMax {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpMax {
					*in = ir.Instr{Op: ir.OpSelect, Dst: in.Dst,
						Cmp: ir.CmpGE, A: in.A, B: in.B, C: in.A, D: in.B}
				}
			}
		}
	}
	if !tgt.HasISel {
		if err := expandSelects(f); err != nil {
			return err
		}
	}
	return nil
}

// expandSelects replaces every OpSelect with an explicit branch
// hammock, splitting the containing block.
func expandSelects(f *ir.Func) error {
	// Iterate until no selects remain; each expansion splits one block.
	for {
		var blk *ir.Block
		idx := -1
	search:
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSelect {
					blk, idx = b, i
					break search
				}
			}
		}
		if blk == nil {
			return nil
		}
		sel := blk.Instrs[idx]
		rest := make([]ir.Instr, len(blk.Instrs)-idx-1)
		copy(rest, blk.Instrs[idx+1:])
		tail := f.NewBlock(blk.Name + ".seljoin")
		thenB := f.NewBlock(blk.Name + ".selthen")
		tail.Instrs = rest
		tail.Term = blk.Term

		blk.Instrs = append(blk.Instrs[:idx], ir.Instr{Op: ir.OpCopy, Dst: sel.Dst, A: sel.D})
		blk.Term = ir.Term{Kind: ir.TermCondBr, Cmp: sel.Cmp, A: sel.A, B: sel.B,
			Then: thenB, Else: tail}
		thenB.Instrs = []ir.Instr{{Op: ir.OpCopy, Dst: sel.Dst, A: sel.C}}
		thenB.Term = ir.Term{Kind: ir.TermJump, Then: tail}
	}
}

// countOps tallies IR operations by kind (used by tests and by the
// harness to report how many predication sites each strategy produced).
func countOps(f *ir.Func) map[ir.Op]int {
	m := make(map[ir.Op]int)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			m[b.Instrs[i].Op]++
		}
	}
	return m
}

// CountOps is the exported form of countOps.
func CountOps(f *ir.Func) map[ir.Op]int { return countOps(f) }

// CountHammocks returns how many conditional-branch blocks the function
// currently has (a proxy for remaining branchiness).
func CountHammocks(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermCondBr {
			n++
		}
	}
	return n
}

var errNoEntry = fmt.Errorf("compiler: function has no entry block")
