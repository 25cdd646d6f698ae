// Package expr implements the filter-expression language used by
// filter_by tasks and computed map columns.
//
// The paper shows expressions such as `rating < 3` (Figure 7). This
// implementation is a small, total language over data-object columns:
//
//	literal   := number | 'string' | "string" | true | false | null
//	primary   := literal | column | '(' expr ')' | '-' primary | not primary
//	arith     := primary (('*'|'/'|'%') primary)*
//	sum       := arith (('+'|'-') arith)*
//	cmp       := sum (('<'|'<='|'>'|'>='|'=='|'!='|'=' | contains | in) sum)?
//	expr      := cmp ((and|or) cmp)*
//
// An expression is parsed once here, and bound against a schema once
// (resolving column names to columns — the "contextual" binding of §3.3)
// by colstore.CompileVec, which evaluates it a column vector at a time.
// docs/SEMANTICS.md §4–5 state what an expression means; Arith is its
// one scalar arithmetic rule.
package expr

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"shareinsights/internal/value"
)

// ---------------------------------------------------------------------
// Lexer

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // punctuation operator: < <= > >= == != = + - * / % ( ) ,
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.pos++
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
		case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.pos++
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
				((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case c == '\'' || c == '"':
			quote := c
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("expr: unterminated string at offset %d", start)
				}
				ch := l.src[l.pos]
				if ch == quote {
					l.pos++
					break
				}
				if ch == '\\' && l.pos+1 < len(l.src) {
					l.pos++
					ch = l.src[l.pos]
				}
				b.WriteByte(ch)
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case "<=", ">=", "==", "!=", "&&", "||":
				l.pos += 2
				l.toks = append(l.toks, token{kind: tokOp, text: two, pos: start})
				continue
			}
			switch c {
			case '<', '>', '=', '+', '-', '*', '/', '%', '(', ')', ',', '!':
				l.pos++
				l.toks = append(l.toks, token{kind: tokOp, text: string(c), pos: start})
			default:
				return nil, fmt.Errorf("expr: unexpected character %q at offset %d", c, l.pos)
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t') {
		l.pos++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '.' }
func isDigit(c byte) bool     { return c >= '0' && c <= '9' }

// ---------------------------------------------------------------------
// AST

// Node is an expression AST node. colstore.CompileVec binds it against
// a schema and evaluates it.
type Node interface {
	// String renders the node back to source form.
	String() string
}

// Lit is a literal value.
type Lit struct{ Val value.V }

// String renders the literal in source form.
func (n *Lit) String() string {
	if n.Val.Kind() == value.String {
		s := strings.ReplaceAll(n.Val.Str(), `\`, `\\`)
		s = strings.ReplaceAll(s, "'", `\'`)
		return "'" + s + "'"
	}
	if n.Val.IsNull() {
		return "null"
	}
	s := n.Val.String()
	if n.Val.Kind() == value.Float && !strings.ContainsAny(s, ".eE") {
		// An integral float must re-parse as a float: 1. / 2 is 0.5.
		s += ".0"
	}
	return s
}

// Col is a column reference.
type Col struct{ Name string }

// String renders the column reference.
func (n *Col) String() string { return n.Name }

// Unary is a prefix operator: - or not.
type Unary struct {
	Op string
	X  Node
}

// String renders the operator in source form.
func (n *Unary) String() string {
	if n.Op == "not" {
		// Self-parenthesize: `not` parses its operand at comparison
		// precedence, so a bare "not x % y" would re-parse as
		// not (x % y) even when this node is (not x) % y.
		return "(not " + n.X.String() + ")"
	}
	return n.Op + n.X.String()
}

// Tuple is a parenthesized value list — only legal as the right-hand
// side of `in`: project in ('pig', 'hive').
type Tuple struct{ Items []Node }

// String renders the value list in source form.
func (n *Tuple) String() string {
	parts := make([]string, len(n.Items))
	for i, it := range n.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Binary is an infix operator.
type Binary struct {
	Op   string
	L, R Node
}

// String renders the expression, parenthesized.
func (n *Binary) String() string {
	return "(" + n.L.String() + " " + n.Op + " " + n.R.String() + ")"
}

// Arith applies an arithmetic operator with the platform's numeric
// coercion rules: if either side is a float (or a string parsing as one
// with a fractional part), the result is a float; string concatenation is
// spelled with '+' when both sides are strings; otherwise int64
// arithmetic. Division by zero yields null.
func Arith(op string, a, b value.V) value.V {
	if op == "+" && a.Kind() == value.String && b.Kind() == value.String {
		return value.NewString(a.Str() + b.Str())
	}
	useFloat := a.Kind() == value.Float || b.Kind() == value.Float
	if !useFloat {
		af, bf := a.Float(), b.Float()
		if af != float64(a.Int()) || bf != float64(b.Int()) {
			useFloat = true
		}
	}
	if useFloat {
		af, bf := a.Float(), b.Float()
		switch op {
		case "+":
			return value.NewFloat(af + bf)
		case "-":
			return value.NewFloat(af - bf)
		case "*":
			return value.NewFloat(af * bf)
		case "/":
			if bf == 0 {
				return value.VNull
			}
			return value.NewFloat(af / bf)
		case "%":
			// Modulo is integral; a fractional divisor truncates to an
			// int64 that may be zero even when bf is not.
			if b.Int() == 0 {
				return value.VNull
			}
			return value.NewInt(a.Int() % b.Int())
		}
		return value.VNull
	}
	ai, bi := a.Int(), b.Int()
	switch op {
	case "+":
		return value.NewInt(ai + bi)
	case "-":
		return value.NewInt(ai - bi)
	case "*":
		return value.NewInt(ai * bi)
	case "/":
		if bi == 0 {
			return value.VNull
		}
		return value.NewInt(ai / bi)
	case "%":
		if bi == 0 {
			return value.VNull
		}
		return value.NewInt(ai % bi)
	}
	return value.VNull
}

// ---------------------------------------------------------------------
// Parser (precedence climbing)

type parser struct {
	toks []token
	pos  int
	src  string
}

// Parse parses an expression source string into an AST.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	n, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("expr: unexpected %q at offset %d in %q", p.peek().text, p.peek().pos, src)
	}
	return n, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// binding powers; higher binds tighter.
func precedence(t token) int {
	name := t.text
	if t.kind == tokIdent {
		switch name {
		case "or":
			return 1
		case "and":
			return 2
		case "contains", "in":
			return 3
		default:
			return 0
		}
	}
	if t.kind != tokOp {
		return 0
	}
	switch name {
	case "||":
		return 1
	case "&&":
		return 2
	case "<", "<=", ">", ">=", "==", "!=", "=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	default:
		return 0
	}
}

func (p *parser) parseExpr(minPrec int) (Node, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		prec := precedence(op)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		p.next()
		right, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op.text, L: left, R: right}
	}
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("expr: bad number %q: %v", t.text, err)
			}
			return &Lit{Val: value.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad number %q: %v", t.text, err)
		}
		return &Lit{Val: value.NewInt(i)}, nil
	case tokString:
		return &Lit{Val: value.NewString(t.text)}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return &Lit{Val: value.VTrue}, nil
		case "false":
			return &Lit{Val: value.VFalse}, nil
		case "null", "nil":
			return &Lit{Val: value.VNull}, nil
		case "not":
			x, err := p.parseExpr(3)
			if err != nil {
				return nil, err
			}
			return &Unary{Op: "not", X: x}, nil
		default:
			return &Col{Name: t.text}, nil
		}
	case tokOp:
		switch t.text {
		case "(":
			n, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			if p.peek().text == "," {
				items := []Node{n}
				for p.peek().text == "," {
					p.next()
					item, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					items = append(items, item)
				}
				if p.peek().text != ")" {
					return nil, fmt.Errorf("expr: expected ')' at offset %d in %q", p.peek().pos, p.src)
				}
				p.next()
				return &Tuple{Items: items}, nil
			}
			if p.peek().text != ")" {
				return nil, fmt.Errorf("expr: expected ')' at offset %d in %q", p.peek().pos, p.src)
			}
			p.next()
			return n, nil
		case "-":
			x, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: "-", X: x}, nil
		case "!":
			x, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: "not", X: x}, nil
		}
	}
	return nil, fmt.Errorf("expr: unexpected token %q at offset %d in %q", t.text, t.pos, p.src)
}

// Walk calls fn for n and then every descendant, depth-first and left to
// right, so nodes are visited in source order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	switch t := n.(type) {
	case *Unary:
		Walk(t.X, fn)
	case *Tuple:
		for _, it := range t.Items {
			Walk(it, fn)
		}
	case *Binary:
		Walk(t.L, fn)
		Walk(t.R, fn)
	}
}

// Columns returns the column names n references, each once, in the
// order they first appear in the source: the optimizer's projection and
// hoisting input, and the order missing columns are reported in.
func Columns(n Node) []string {
	var out []string
	Walk(n, func(m Node) {
		if c, ok := m.(*Col); ok && !slices.Contains(out, c.Name) {
			out = append(out, c.Name)
		}
	})
	return out
}
