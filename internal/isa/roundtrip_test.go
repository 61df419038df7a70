package isa

import (
	"math/rand"
	"testing"
)

// randomValid produces a random structurally valid instruction.
func randomValid(rng *rand.Rand) Instruction {
	gpr := func() Reg { return Reg(rng.Intn(32)) }
	crf := func() Reg { return CR0 + Reg(rng.Intn(8)) }
	bit := func() CRBit { return CRBit(rng.Intn(3)) } // lt/gt/eq
	imm16 := func() int64 { return int64(int16(rng.Uint64())) }
	uimm16 := func() int64 { return int64(rng.Intn(1 << 16)) }
	sh := func() int64 { return int64(rng.Intn(64)) }
	target := func(idx int) int { return idx + rng.Intn(4000) - 2000 }

	const idx = 4000
	switch rng.Intn(14) {
	case 0:
		return Instruction{Op: OpAdd, RT: gpr(), RA: gpr(), RB: gpr()}
	case 1:
		return Instruction{Op: OpAddi, RT: gpr(), RA: gpr(), Imm: imm16()}
	case 2:
		return Instruction{Op: OpMulli, RT: gpr(), RA: gpr(), Imm: imm16()}
	case 3:
		return Instruction{Op: OpAndi, RT: gpr(), RA: gpr(), Imm: uimm16()}
	case 4:
		return Instruction{Op: OpSldi, RT: gpr(), RA: gpr(), Imm: sh()}
	case 5:
		return Instruction{Op: OpMax, RT: gpr(), RA: gpr(), RB: gpr()}
	case 6:
		return Instruction{Op: OpIsel, RT: gpr(), RA: gpr(), RB: gpr(), CRF: crf(), Bit: bit()}
	case 7:
		return Instruction{Op: OpCmpd, CRF: crf(), RA: gpr(), RB: gpr(), RT: NoReg}
	case 8:
		return Instruction{Op: OpCmpdi, CRF: crf(), RA: gpr(), Imm: imm16(), RT: NoReg}
	case 9:
		return Instruction{Op: OpBc, CRF: crf(), Bit: bit(), Want: rng.Intn(2) == 0, Target: target(idx)}
	case 10:
		return Instruction{Op: OpLwz, RT: gpr(), RA: gpr(), Imm: imm16()}
	case 11:
		return Instruction{Op: OpStdx, RT: gpr(), RA: gpr(), RB: gpr()}
	case 12:
		return Instruction{Op: OpLhax, RT: gpr(), RA: gpr(), RB: gpr()}
	default:
		return Instruction{Op: OpB, Target: target(idx), Imm: int64(rng.Intn(2))}
	}
}

// TestRandomizedEncodeDecodeRoundTrip fuzzes the codec with thousands
// of structurally valid instructions.
func TestRandomizedEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const idx = 4000
	for trial := 0; trial < 5000; trial++ {
		ins := randomValid(rng)
		word, err := Encode(&ins, idx)
		if err != nil {
			t.Fatalf("trial %d: encode %+v: %v", trial, ins, err)
		}
		got, err := Decode(word, idx)
		if err != nil {
			t.Fatalf("trial %d: decode %#08x (%s): %v", trial, word, ins.Disasm(), err)
		}
		want := normalizeForEncoding(ins)
		gotN := normalizeForEncoding(got)
		if gotN != want {
			t.Fatalf("trial %d: round trip mismatch\n in:  %+v\n out: %+v", trial, want, gotN)
		}
	}
}

// TestEncodeAllProgramsAreDecodable assembles a nontrivial program and
// pushes it through the binary level and back.
func TestEncodeAllProgramsAreDecodable(t *testing.T) {
	a := NewAsm()
	a.Label("f")
	a.Li64(R3, 0x123456789ABC)
	a.Emit(Instruction{Op: OpMtctr, RA: R3})
	a.Label("loop")
	a.Emit(Instruction{Op: OpMax, RT: R4, RA: R4, RB: R3})
	a.Emit(Instruction{Op: OpCmpdi, CRF: CR1, RA: R4, Imm: 0})
	a.Emit(Instruction{Op: OpIsel, RT: R5, RA: R4, RB: R3, CRF: CR1, Bit: CRGT})
	a.Branch(Instruction{Op: OpBdnz}, "loop")
	a.Ret()
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	words, err := p.EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeAll(words)
	if err != nil {
		t.Fatal(err)
	}
	words2, err := q.EncodeAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if words[i] != words2[i] {
			t.Errorf("word %d not stable: %#08x vs %#08x", i, words[i], words2[i])
		}
	}
}

// TestDecodeRejectsNonCanonicalWords pins words whose fields decode to
// a valid instruction that encodes to a different word (or not at all):
// Decode must refuse them rather than hand back an instruction Encode
// cannot reproduce.
func TestDecodeRejectsNonCanonicalWords(t *testing.T) {
	const idx = 100
	for _, tc := range []struct {
		name string
		word uint32
	}{
		{"bc with BO=0", 0x40010010},                  // re-encodes to 0x40810010
		{"isel with stray XO bits", 0x78642ffe},       // re-encodes to 0x78642fde
		{"sldi by 100", 21<<26 | 3<<21 | 4<<16 | 100}, // Encode takes shifts 0..63
		{"srdi by 100", 22<<26 | 3<<21 | 4<<16 | 100},
		{"sradi by 100", 23<<26 | 3<<21 | 4<<16 | 100},
	} {
		if ins, err := Decode(tc.word, idx); err == nil {
			t.Errorf("%s: Decode(%#08x) = %+v, want an error", tc.name, tc.word, ins)
		}
	}
}

// FuzzDecode feeds Decode arbitrary words: it never panics, and every
// word it accepts is exactly what Encode writes for the result.
func FuzzDecode(f *testing.F) {
	const idx = 4000
	for _, ins := range encodableSamples() {
		word, err := Encode(&ins, idx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word uint32) {
		ins, err := Decode(word, idx)
		if err != nil {
			return
		}
		back, err := Encode(&ins, idx)
		if err != nil {
			t.Fatalf("Decode(%#08x) = %+v, which does not encode: %v", word, ins, err)
		}
		if back != word {
			t.Fatalf("Decode(%#08x) re-encodes to %#08x", word, back)
		}
	})
}
