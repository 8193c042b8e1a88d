package bytecode

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, a, b int32) bool {
		ins := Instr{Op: Op(op % uint8(numOps)), A: a, B: b}
		var buf [EncodedSize]byte
		ins.EncodeInto(buf[:], 0)
		return DecodeInstr(buf[:], 0) == ins
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAtOffset(t *testing.T) {
	buf := make([]byte, 3*EncodedSize)
	a := Instr{Op: OpConstInt, A: -7}
	b := Instr{Op: OpJump, A: 1 << 20}
	a.EncodeInto(buf, 0)
	b.EncodeInto(buf, EncodedSize)
	if DecodeInstr(buf, 0) != a || DecodeInstr(buf, EncodedSize) != b {
		t.Fatal("offset encoding broken")
	}
}

func TestOpNamesComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if !strings.HasPrefix(Op(250).String(), "op(") {
		t.Error("out-of-range opcode should fall back")
	}
}

func TestBinOpNamesComplete(t *testing.T) {
	for b := BinOp(0); b < numBinOps; b++ {
		if strings.HasPrefix(b.String(), "bin(") {
			t.Errorf("binop %d has no name", b)
		}
	}
	if got := BinOp(-1).String(); got != "bin(-1)" {
		t.Errorf("negative binop names itself %q, want the bin(-1) fallback", got)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{Instr{Op: OpReturn}, "return"},
		{Instr{Op: OpBin, A: int32(BinAdd)}, "bin +"},
		{Instr{Op: OpBin, A: -1}, "bin bin(-1)"},
		{Instr{Op: OpClosure, A: 3, B: 2}, "closure 3 free 2"},
		{Instr{Op: OpTestInt, A: 5, B: 9}, "testint 5 -> 9"},
		{Instr{Op: OpJump, A: 4}, "jump 4"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("%+v => %q, want %q", c.ins, got, c.want)
		}
	}
}

// FuzzDecodeInstr holds the code-buffer decoder to its contract on arbitrary
// bytes, since code is read back from heap buffers that a restored heap can
// supply: the first EncodedSize bytes decode to an instruction that encodes
// back to exactly those bytes, and that prints without a formatting error,
// so an operand no name covers prints as its fallback, not a recovered panic.
func FuzzDecodeInstr(f *testing.F) {
	for _, ins := range []Instr{
		{Op: OpBin, A: -1},
		{Op: OpBin, A: int32(BinStrCat)},
		{Op: OpBin, A: int32(numBinOps)},
		{Op: OpTestTuple, A: 3, B: -9},
		{Op: numOps, A: 1 << 30},
		{Op: 255, A: -1, B: -1},
	} {
		var buf [EncodedSize]byte
		ins.EncodeInto(buf[:], 0)
		f.Add(buf[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < EncodedSize {
			return
		}
		ins := DecodeInstr(data, 0)
		var again [EncodedSize]byte
		ins.EncodeInto(again[:], 0)
		if !bytes.Equal(again[:], data[:EncodedSize]) {
			t.Fatalf("%x decodes to %+v, which encodes as %x", data[:EncodedSize], ins, again)
		}
		if s := ins.String(); strings.Contains(s, "%!") {
			t.Fatalf("%+v prints as %q", ins, s)
		}
	})
}

func TestDisassemble(t *testing.T) {
	p := &Program{
		Blocks: []Block{
			{Name: "entry", Code: []Instr{{Op: OpConstInt, A: 1}, {Op: OpHalt}}},
			{Name: "f", Code: []Instr{{Op: OpReturn}}},
		},
		Strings: []string{"lit"},
		Entry:   0,
	}
	out := p.Disassemble()
	for _, want := range []string{"block 0 entry (entry)", "block 1 f", "constint 1", `"lit"`} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
