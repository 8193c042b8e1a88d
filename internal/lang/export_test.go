package lang

import (
	"repligc/internal/bytecode"
	"repligc/internal/core"
)

// Sized is one Go buffer of a compile that the census sized: how big it
// ended up against the size its bound gave it. A stack ends up at its
// capacity, which passes the bound only if an append outgrew the array.
type Sized struct {
	Name           string
	Reached, Bound int
}

// CompileSized compiles src as Compile does and reports every buffer the
// census sized. On an error it reports what had been sized by then; the
// others read 0. The contexts are not listed: pushCtx indexes its array, so
// a context past the bound panics rather than regrowing.
func CompileSized(m *core.Mutator, src string) (*bytecode.Program, []Sized, error) {
	c := new(Compiler)
	prog, err := c.compile(m, src)
	_, census, _ := lex(src, nil)
	p := &c.p
	sized := []Sized{
		{"symbol names", cap(c.syms.names), census.idents},
		{"symbol index", len(c.syms.ids.slots), indexSize(census.idents)},
		{"literal pool", cap(p.Literals), census.strs},
		{"literal index", len(p.litIdx.slots), indexSize(census.strs)},
		{"parser handles", cap(p.hs), census.elems},
	}
	blocks, _, hs, defs, fails, jumps := p.bounds()
	return prog, append(sized,
		Sized{"blocks", len(c.blocks), blocks},
		Sized{"buffer slots", cap(c.slots), blocks},
		Sized{"application arguments", cap(c.hs), hs},
		Sized{"fun-group members", cap(c.defs), defs},
		Sized{"failure sites", cap(c.fails), fails},
		Sized{"pending jumps", cap(c.jumps), jumps},
	), err
}
