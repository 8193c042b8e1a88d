package lang

import (
	"strconv"
	"strings"
)

var keywords = map[string]TokKind{
	"let": TLet, "in": TIn, "fn": TFn, "fun": TFun, "and": TAnd, "if": TIf,
	"then": TThen, "else": TElse, "case": TCase, "of": TOf, "true": TTrue,
	"false": TFalse, "andalso": TAndalso, "orelse": TOrelse, "not": TNot,
	"ref": TRef, "mod": TMod,
}

// Lexer turns MiniML source text into tokens. Comments are ML style:
// (* ... *), nesting allowed.
type Lexer struct {
	src  string
	off  int
	line int
	col  int

	countOnly bool // leave escaped string literals unexpanded (countTokens)
}

// NewLexer builds a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{l.line, l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '(' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			depth := 1
			for depth > 0 {
				if l.off >= len(l.src) {
					return errf(start, "unterminated comment")
				}
				switch {
				case l.peek() == '(' && l.peek2() == '*':
					l.advance()
					l.advance()
					depth++
				case l.peek() == '*' && l.peek2() == ')':
					l.advance()
					l.advance()
					depth--
				default:
					l.advance()
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '\''
}

func isIdentRest(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		n, err := strconv.ParseInt(l.src[start:l.off], 10, 64)
		if err != nil {
			return Token{}, errf(pos, "integer literal out of range")
		}
		return Token{Kind: TInt, Pos: pos, Int: n}, nil

	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentRest(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Pos: pos}, nil
		}
		return Token{Kind: TIdent, Pos: pos, Text: word}, nil

	case c == '"':
		l.advance()
		start, escaped := l.off, false
		for {
			if l.off >= len(l.src) {
				return Token{}, errf(pos, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					return Token{}, errf(pos, "unterminated escape")
				}
				if esc := l.advance(); esc != 'n' && esc != 't' && esc != '\\' && esc != '"' {
					return Token{}, errf(pos, "unknown escape \\%c", esc)
				}
				escaped = true
			}
		}
		// A literal without escapes is a slice of the source.
		text := l.src[start : l.off-1]
		if escaped && !l.countOnly {
			text = unescape(text)
		}
		return Token{Kind: TString, Pos: pos, Text: text}, nil

	case c == '#':
		l.advance()
		if !isDigit(l.peek()) {
			return Token{}, errf(pos, "expected digit after #")
		}
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		n, _ := strconv.ParseInt(l.src[start:l.off], 10, 32)
		if n < 1 {
			return Token{}, errf(pos, "projection index must be >= 1")
		}
		return Token{Kind: TProj, Pos: pos, Int: n}, nil
	}

	two := func(k TokKind) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	one := func(k TokKind) (Token, error) {
		l.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	switch c {
	case '(':
		return one(TLParen)
	case ')':
		return one(TRParen)
	case '[':
		return one(TLBrack)
	case ']':
		return one(TRBrack)
	case ',':
		return one(TComma)
	case ';':
		return one(TSemi)
	case '|':
		return one(TBar)
	case '+':
		return one(TPlus)
	case '-':
		return one(TMinus)
	case '*':
		return one(TStar)
	case '/':
		return one(TSlash)
	case '^':
		return one(TCaret)
	case '!':
		return one(TBang)
	case '~':
		return one(TTilde)
	case '_':
		return one(TUscore)
	case '=':
		if l.peek2() == '>' {
			return two(TArrow)
		}
		return one(TEq)
	case '<':
		switch l.peek2() {
		case '>':
			return two(TNe)
		case '=':
			return two(TLe)
		}
		return one(TLt)
	case '>':
		if l.peek2() == '=' {
			return two(TGe)
		}
		return one(TGt)
	case ':':
		switch l.peek2() {
		case ':':
			return two(TCons)
		case '=':
			return two(TAssign)
		}
		return Token{}, errf(pos, "unexpected ':'")
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// unescape expands the escapes of a string literal body Next has validated.
func unescape(body string) string {
	var buf strings.Builder
	buf.Grow(len(body))
	for i := 0; i < len(body); i++ {
		ch := body[i]
		if ch == '\\' {
			i++
			switch ch = body[i]; ch {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			}
		}
		buf.WriteByte(ch)
	}
	return buf.String()
}

// LexAll tokenises the whole input (including the trailing TEOF). The
// parser streams from a Lexer instead; LexAll is the reference the streamed
// sequence is tested against.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TEOF {
			return toks, nil
		}
	}
}

// countTokens reports len(LexAll(src)) and LexAll's error without building
// the tokens.
func countTokens(src string) (int, error) {
	l := NewLexer(src)
	l.countOnly = true
	for n := 1; ; n++ {
		t, err := l.Next()
		if err != nil {
			return 0, err
		}
		if t.Kind == TEOF {
			return n, nil
		}
	}
}
