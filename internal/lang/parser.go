package lang

import (
	"repligc/internal/bytecode"
	"repligc/internal/core"
)

// Parser builds the heap-allocated AST. It is a conventional recursive-
// descent / precedence-climbing parser; the only unconventional part is the
// handle discipline: every subtree is pinned on the mutator's shadow stack
// until its parent node adopts it, and each parse function collapses its
// scratch handles before returning, so the live handle depth tracks the
// parser's recursion depth rather than the AST size.
type Parser struct {
	m    *core.Mutator
	syms *SymTab
	lex  Lexer
	tok  Token // the one token of lookahead

	// Literals collects string literal contents in first-seen order; TagStr
	// nodes carry an index into this pool. litIdx finds a repeat.
	Literals []string
	litIdx   map[string]int32

	// Scratch stacks for the variable-length forms (list elements, case
	// arms, fun groups, curried parameters). A parse function notes the
	// depth on entry, pushes, reads its own entries back after the nested
	// parses return, and truncates to the noted depth, so the whole parse
	// shares two backing arrays.
	hs     []core.Handle
	params []Token
}

// Parse parses a whole program (one expression) and returns a handle to
// its AST root together with the string literal pool.
func Parse(m *core.Mutator, syms *SymTab, src string) (core.Handle, []string, error) {
	// Count first, then stream: the lexing charge lands before the first
	// AST allocation and a lex error anywhere in src precedes any parse
	// error, exactly as when the tokens were materialised up front.
	n, err := countTokens(src)
	if err != nil {
		return 0, nil, err
	}
	p := &Parser{m: m, syms: syms, lex: *NewLexer(src)}
	p.next()
	m.Step(n) // lexing work
	root, err := p.parseExpr()
	if err != nil {
		return 0, nil, err
	}
	if p.cur().Kind != TEOF {
		return 0, nil, errf(p.cur().Pos, "unexpected %s after expression", p.cur().Kind)
	}
	return root, p.Literals, nil
}

func (p *Parser) cur() Token { return p.tok }

// next consumes the lookahead token and lexes its successor. countTokens has
// already lexed all of src without error, so Next cannot fail here.
func (p *Parser) next() Token {
	t := p.tok
	p.tok, _ = p.lex.Next()
	return t
}

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s", k, t.Kind)
	}
	p.next()
	return t, nil
}

func (p *Parser) literal(s string) int32 {
	if i, ok := p.litIdx[s]; ok {
		return i
	}
	if p.litIdx == nil {
		p.litIdx = make(map[string]int32)
	}
	i := int32(len(p.Literals))
	p.litIdx[s] = i
	p.Literals = append(p.Literals, s)
	return i
}

// listFrom builds a heap list of the scratch handles above base, in push
// order, and pops them.
func (p *Parser) listFrom(base int) core.Handle {
	list := listFromHandles(p.m, p.hs[base:])
	p.hs = p.hs[:base]
	return list
}

// pushSeq parses `elem (sep elem)* close`, pushing each element on p.hs.
func (p *Parser) pushSeq(elem func() (core.Handle, error), sep, close TokKind) error {
	for {
		e, err := elem()
		if err != nil {
			return err
		}
		p.hs = append(p.hs, e)
		if p.cur().Kind != sep {
			_, err := p.expect(close)
			return err
		}
		p.next()
	}
}

// parseExpr handles the binding and control forms, then falls through to
// operator expressions.
func (p *Parser) parseExpr() (core.Handle, error) {
	switch t := p.cur(); t.Kind {
	case TLet:
		return p.parseLet()
	case TFun:
		return p.parseFun()
	case TFn:
		return p.parseFn()
	case TIf:
		return p.parseIf()
	case TCase:
		return p.parseCase()
	default:
		return p.parseAssign()
	}
}

// let x = e in body
func (p *Parser) parseLet() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next() // let
	name, err := p.expect(TIdent)
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(TEq); err != nil {
		return 0, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(TIn); err != nil {
		return 0, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	sym := p.syms.Intern(name.Text)
	node := newNode(p.m, TagLet, t.Pos, imm(int64(sym)), sub(rhs), sub(body))
	return p.m.Collapse(mark, node), nil
}

// fun f x y = e [and g a = e2 ...] in body
func (p *Parser) parseFun() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next() // fun
	base := len(p.hs)
	if err := p.pushSeq(p.parseFunDef, TAnd, TIn); err != nil {
		return 0, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	list := p.listFrom(base)
	node := newNode(p.m, TagFun, t.Pos, sub(list), sub(body))
	return p.m.Collapse(mark, node), nil
}

// f x y z = e  →  FunDef(f, x, fn y => fn z => e)
func (p *Parser) parseFunDef() (core.Handle, error) {
	mark := p.m.HandleMark()
	name, err := p.expect(TIdent)
	if err != nil {
		return 0, err
	}
	base := len(p.params)
	for p.cur().Kind == TIdent {
		p.params = append(p.params, p.next())
	}
	if len(p.params) == base {
		return 0, errf(name.Pos, "function %s needs at least one parameter", name.Text)
	}
	if _, err := p.expect(TEq); err != nil {
		return 0, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	// Curry the extra parameters into nested fns, innermost first.
	params := p.params[base:]
	p.params = p.params[:base]
	for i := len(params) - 1; i >= 1; i-- {
		sym := p.syms.Intern(params[i].Text)
		body = newNode(p.m, TagFn, params[i].Pos, imm(int64(sym)), sub(body))
	}
	fsym := p.syms.Intern(name.Text)
	psym := p.syms.Intern(params[0].Text)
	node := newNode(p.m, TagFunDef, name.Pos, imm(int64(fsym)), imm(int64(psym)), sub(body))
	return p.m.Collapse(mark, node), nil
}

// fn x => e
func (p *Parser) parseFn() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next() // fn
	param, err := p.expect(TIdent)
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(TArrow); err != nil {
		return 0, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	sym := p.syms.Intern(param.Text)
	node := newNode(p.m, TagFn, t.Pos, imm(int64(sym)), sub(body))
	return p.m.Collapse(mark, node), nil
}

// if c then a else b
func (p *Parser) parseIf() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next() // if
	c, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(TThen); err != nil {
		return 0, err
	}
	a, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(TElse); err != nil {
		return 0, err
	}
	b, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	node := newNode(p.m, TagIf, t.Pos, sub(c), sub(a), sub(b))
	return p.m.Collapse(mark, node), nil
}

// case e of p1 => e1 | p2 => e2 ...
func (p *Parser) parseCase() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next() // case
	scrut, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(TOf); err != nil {
		return 0, err
	}
	base := len(p.hs)
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(TArrow); err != nil {
			return 0, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		p.hs = append(p.hs, newNode(p.m, TagAlt, t.Pos, sub(pat), sub(body)))
		if p.cur().Kind != TBar {
			break
		}
		p.next()
	}
	list := p.listFrom(base)
	node := newNode(p.m, TagCase, t.Pos, sub(scrut), sub(list))
	return p.m.Collapse(mark, node), nil
}

// Patterns: pcons := patom ("::" pcons)?
func (p *Parser) parsePattern() (core.Handle, error) {
	mark := p.m.HandleMark()
	head, err := p.parsePatAtom()
	if err != nil {
		return 0, err
	}
	if p.cur().Kind == TCons {
		t := p.next()
		tail, err := p.parsePattern()
		if err != nil {
			return 0, err
		}
		node := newNode(p.m, TagPCons, t.Pos, sub(head), sub(tail))
		return p.m.Collapse(mark, node), nil
	}
	return p.m.Collapse(mark, head), nil
}

func (p *Parser) parsePatAtom() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next()
	switch t.Kind {
	case TUscore:
		return newNode(p.m, TagPWild, t.Pos), nil
	case TIdent:
		sym := p.syms.Intern(t.Text)
		return newNode(p.m, TagPVar, t.Pos, imm(int64(sym))), nil
	case TInt:
		return newNode(p.m, TagPInt, t.Pos, imm(t.Int)), nil
	case TTilde:
		n, err := p.expect(TInt)
		if err != nil {
			return 0, err
		}
		return newNode(p.m, TagPInt, t.Pos, imm(-n.Int)), nil
	case TTrue:
		return newNode(p.m, TagPBool, t.Pos, imm(1)), nil
	case TFalse:
		return newNode(p.m, TagPBool, t.Pos, imm(0)), nil
	case TLBrack:
		if p.cur().Kind == TRBrack {
			p.next()
			return newNode(p.m, TagPNil, t.Pos), nil
		}
		// [p1, p2, ...] desugars to p1 :: p2 :: ... :: [].
		base := len(p.hs)
		if err := p.pushSeq(p.parsePattern, TComma, TRBrack); err != nil {
			return 0, err
		}
		acc := newNode(p.m, TagPNil, t.Pos)
		for i := len(p.hs) - 1; i >= base; i-- {
			acc = newNode(p.m, TagPCons, t.Pos, sub(p.hs[i]), sub(acc))
		}
		p.hs = p.hs[:base]
		return p.m.Collapse(mark, acc), nil
	case TLParen:
		if p.cur().Kind == TRParen {
			p.next()
			return newNode(p.m, TagPUnit, t.Pos), nil
		}
		base := len(p.hs)
		if err := p.pushSeq(p.parsePattern, TComma, TRParen); err != nil {
			return 0, err
		}
		if len(p.hs) == base+1 {
			only := p.hs[base]
			p.hs = p.hs[:base]
			return p.m.Collapse(mark, only), nil
		}
		list := p.listFrom(base)
		node := newNode(p.m, TagPTuple, t.Pos, sub(list))
		return p.m.Collapse(mark, node), nil
	}
	return 0, errf(t.Pos, "expected pattern, found %s", t.Kind)
}

// Operator precedence: := (right, lowest), orelse, andalso, comparisons,
// :: (right), + - ^, * / mod, unary, application, atoms.

func (p *Parser) parseAssign() (core.Handle, error) {
	mark := p.m.HandleMark()
	lhs, err := p.parseOrelse()
	if err != nil {
		return 0, err
	}
	if p.cur().Kind == TAssign {
		t := p.next()
		rhs, err := p.parseAssign()
		if err != nil {
			return 0, err
		}
		node := newNode(p.m, TagAssign, t.Pos, sub(lhs), sub(rhs))
		return p.m.Collapse(mark, node), nil
	}
	return p.m.Collapse(mark, lhs), nil
}

func (p *Parser) parseOrelse() (core.Handle, error) {
	return p.parseLeftAssoc(
		func() (core.Handle, error) { return p.parseAndalso() },
		map[TokKind]Tag{TOrelse: TagOrelse})
}

func (p *Parser) parseAndalso() (core.Handle, error) {
	return p.parseLeftAssoc(
		func() (core.Handle, error) { return p.parseCmp() },
		map[TokKind]Tag{TAndalso: TagAndalso})
}

// parseLeftAssoc folds `sub (op sub)*` for short-circuit forms.
func (p *Parser) parseLeftAssoc(parse func() (core.Handle, error), ops map[TokKind]Tag) (core.Handle, error) {
	mark := p.m.HandleMark()
	lhs, err := parse()
	if err != nil {
		return 0, err
	}
	for {
		tag, ok := ops[p.cur().Kind]
		if !ok {
			return p.m.Collapse(mark, lhs), nil
		}
		t := p.next()
		rhs, err := parse()
		if err != nil {
			return 0, err
		}
		lhs = newNode(p.m, tag, t.Pos, sub(lhs), sub(rhs))
	}
}

var cmpOps = map[TokKind]bytecode.BinOp{
	TEq: bytecode.BinEq, TNe: bytecode.BinNe, TLt: bytecode.BinLt,
	TLe: bytecode.BinLe, TGt: bytecode.BinGt, TGe: bytecode.BinGe,
}

func (p *Parser) parseCmp() (core.Handle, error) {
	mark := p.m.HandleMark()
	lhs, err := p.parseCons()
	if err != nil {
		return 0, err
	}
	if op, ok := cmpOps[p.cur().Kind]; ok {
		t := p.next()
		rhs, err := p.parseCons()
		if err != nil {
			return 0, err
		}
		node := newNode(p.m, TagBin, t.Pos, imm(int64(op)), sub(lhs), sub(rhs))
		return p.m.Collapse(mark, node), nil
	}
	return p.m.Collapse(mark, lhs), nil
}

func (p *Parser) parseCons() (core.Handle, error) {
	mark := p.m.HandleMark()
	lhs, err := p.parseAdd()
	if err != nil {
		return 0, err
	}
	if p.cur().Kind == TCons {
		t := p.next()
		rhs, err := p.parseCons() // right associative
		if err != nil {
			return 0, err
		}
		node := newNode(p.m, TagBin, t.Pos, imm(int64(bytecode.BinCons)), sub(lhs), sub(rhs))
		return p.m.Collapse(mark, node), nil
	}
	return p.m.Collapse(mark, lhs), nil
}

var addOps = map[TokKind]bytecode.BinOp{
	TPlus: bytecode.BinAdd, TMinus: bytecode.BinSub, TCaret: bytecode.BinStrCat,
}

var mulOps = map[TokKind]bytecode.BinOp{
	TStar: bytecode.BinMul, TSlash: bytecode.BinDiv, TMod: bytecode.BinMod,
}

func (p *Parser) parseAdd() (core.Handle, error) { return p.parseBinLevel(addOps, p.parseMul) }
func (p *Parser) parseMul() (core.Handle, error) { return p.parseBinLevel(mulOps, p.parseUnary) }

func (p *Parser) parseBinLevel(ops map[TokKind]bytecode.BinOp, sublevel func() (core.Handle, error)) (core.Handle, error) {
	mark := p.m.HandleMark()
	lhs, err := sublevel()
	if err != nil {
		return 0, err
	}
	for {
		op, ok := ops[p.cur().Kind]
		if !ok {
			return p.m.Collapse(mark, lhs), nil
		}
		t := p.next()
		rhs, err := sublevel()
		if err != nil {
			return 0, err
		}
		lhs = newNode(p.m, TagBin, t.Pos, imm(int64(op)), sub(lhs), sub(rhs))
	}
}

func (p *Parser) parseUnary() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.cur()
	var tag Tag
	switch t.Kind {
	case TNot:
		tag = TagNot
	case TTilde:
		tag = TagNeg
	case TBang:
		tag = TagDeref
	case TRef:
		tag = TagRef
	default:
		return p.parseApp()
	}
	p.next()
	e, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	node := newNode(p.m, tag, t.Pos, sub(e))
	return p.m.Collapse(mark, node), nil
}

// Application: atom atom* (left associative).
func (p *Parser) parseApp() (core.Handle, error) {
	mark := p.m.HandleMark()
	fn, err := p.parseAtom()
	if err != nil {
		return 0, err
	}
	for p.startsAtom() {
		arg, err := p.parseAtom()
		if err != nil {
			return 0, err
		}
		fn = newNode(p.m, TagApp, p.cur().Pos, sub(fn), sub(arg))
	}
	return p.m.Collapse(mark, fn), nil
}

func (p *Parser) startsAtom() bool {
	switch p.cur().Kind {
	case TInt, TString, TIdent, TTrue, TFalse, TLParen, TLBrack, TProj:
		return true
	}
	return false
}

func (p *Parser) parseAtom() (core.Handle, error) {
	mark := p.m.HandleMark()
	t := p.next()
	switch t.Kind {
	case TInt:
		return newNode(p.m, TagInt, t.Pos, imm(t.Int)), nil
	case TString:
		return newNode(p.m, TagStr, t.Pos, imm(int64(p.literal(t.Text)))), nil
	case TTrue:
		return newNode(p.m, TagBool, t.Pos, imm(1)), nil
	case TFalse:
		return newNode(p.m, TagBool, t.Pos, imm(0)), nil
	case TIdent:
		sym := p.syms.Intern(t.Text)
		return newNode(p.m, TagVar, t.Pos, imm(int64(sym))), nil
	case TProj:
		e, err := p.parseAtom()
		if err != nil {
			return 0, err
		}
		node := newNode(p.m, TagProj, t.Pos, imm(t.Int), sub(e))
		return p.m.Collapse(mark, node), nil
	case TLBrack:
		base := len(p.hs)
		if p.cur().Kind == TRBrack {
			p.next()
		} else if err := p.pushSeq(p.parseExpr, TComma, TRBrack); err != nil {
			return 0, err
		}
		list := p.listFrom(base)
		node := newNode(p.m, TagList, t.Pos, sub(list))
		return p.m.Collapse(mark, node), nil
	case TLParen:
		if p.cur().Kind == TRParen {
			p.next()
			return newNode(p.m, TagUnit, t.Pos), nil
		}
		first, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		switch p.cur().Kind {
		case TComma, TSemi: // tuple or sequence
			sep, tag := p.cur().Kind, TagTuple
			if sep == TSemi {
				tag = TagSeq
			}
			base := len(p.hs)
			p.hs = append(p.hs, first)
			p.next()
			if err := p.pushSeq(p.parseExpr, sep, TRParen); err != nil {
				return 0, err
			}
			list := p.listFrom(base)
			node := newNode(p.m, tag, t.Pos, sub(list))
			return p.m.Collapse(mark, node), nil
		default:
			if _, err := p.expect(TRParen); err != nil {
				return 0, err
			}
			return p.m.Collapse(mark, first), nil
		}
	}
	return 0, errf(t.Pos, "expected expression, found %s", t.Kind)
}
