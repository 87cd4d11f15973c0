package table

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a predicate in the scan mini-language and returns the
// expression tree. The grammar, loosest binding first:
//
//	expr    := or
//	or      := and { "or" and }
//	and     := not { "and" not }
//	not     := "not" not | "(" expr ")" | "true" | "false" | cmp
//	cmp     := column op value
//	         | column "in" "(" value { "," value } ")"
//	op      := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
//
// Columns are identifiers ([A-Za-z_] then [A-Za-z0-9_]), values are
// signed int64 literals, and the keywords and/or/not/in/true/false
// are case-insensitive and reserved (a column cannot be named after
// them). true and false are the match-all and match-nothing leaves —
// what the empty combinators And() and Or() render as, so every
// expression String() produces parses back. Comparisons translate to
// the closed-range leaves the planner prunes with, and And folds the
// bounds on one column into one leaf: "date >= 100 and date < 200 or
// status = 3" parses as Or(Range(date,100,199), Eq(status,3)).
func Parse(s string) (Expr, error) {
	p := &parser{input: s}
	p.next()
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %q after expression", p.tok.text)
	}
	return e, nil
}

// tokKind enumerates the lexer's token classes.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokOp     // comparison operator
	tokLParen // (
	tokRParen // )
	tokComma  // ,
	tokBad    // a byte outside the language
)

// token is one lexed token with its source position.
type token struct {
	kind tokKind
	text string
	pos  int
}

// parser is a recursive-descent parser with one token of lookahead.
type parser struct {
	input string
	pos   int
	tok   token
	// depth counts the "not"s and open parentheses around the token.
	depth int
	// leaves counts the comparisons parsed so far.
	leaves int
}

// MaxDepth caps how deeply "not" and parentheses may nest in a
// predicate. Parsing recurses once per level, and so do printing,
// planning and folding the tree, so without a cap a request's stack
// would grow with its length; past the cap Parse stops with a
// ParseError at the token that went one level too deep.
const MaxDepth = 64

// MaxLeaves caps how many comparisons (Range, Eq and In leaves) a
// predicate may hold. Planning and evaluating a predicate cost time in
// its leaves for every block of a table, so without a cap a request
// under the server's 1 MiB body limit could hold 50,000 of them; past
// the cap Parse stops with a ParseError at the first comparison over
// it. An in-list counts as one leaf, whatever its length.
const MaxLeaves = 1024

// ParseError is the error Parse returns for input outside the
// mini-language: what went wrong, the byte offset where, and the
// offending token's text. Servers surface these fields verbatim in
// 400 responses, so a client can point at the exact byte of a bad
// predicate; errors.As extracts the structured form from anything
// wrapping it.
type ParseError struct {
	// Offset is the byte offset of the offending token in the input.
	Offset int
	// Token is the offending token's text; empty at end of input.
	Token string
	// Msg describes what the parser expected instead.
	Msg string
}

// Error renders the message with the offset and offending token, so
// even a plain %v shows where the predicate broke.
func (e *ParseError) Error() string {
	if e.Token == "" {
		return fmt.Sprintf("parse predicate: %s at offset %d (end of input)", e.Msg, e.Offset)
	}
	return fmt.Sprintf("parse predicate: %s at offset %d near %q", e.Msg, e.Offset, e.Token)
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Offset: p.tok.pos, Token: p.tok.text, Msg: fmt.Sprintf(format, args...)}
}

// next lexes the following token into p.tok.
func (p *parser) next() {
	for p.pos < len(p.input) && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.input) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.input[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.tok = token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		p.pos++
		p.tok = token{kind: tokRParen, text: ")", pos: start}
	case c == ',':
		p.pos++
		p.tok = token{kind: tokComma, text: ",", pos: start}
	case c == '=' || c == '!' || c == '<' || c == '>':
		p.pos++
		if p.pos < len(p.input) && p.input[p.pos] == '=' {
			p.pos++
		}
		p.tok = token{kind: tokOp, text: p.input[start:p.pos], pos: start}
	case c == '-' || c >= '0' && c <= '9':
		p.pos++
		for p.pos < len(p.input) && p.input[p.pos] >= '0' && p.input[p.pos] <= '9' {
			p.pos++
		}
		p.tok = token{kind: tokNumber, text: p.input[start:p.pos], pos: start}
	case c == '_' || unicode.IsLetter(rune(c)):
		p.pos++
		for p.pos < len(p.input) {
			c := p.input[p.pos]
			if c != '_' && !unicode.IsLetter(rune(c)) && !unicode.IsDigit(rune(c)) {
				break
			}
			p.pos++
		}
		p.tok = token{kind: tokIdent, text: p.input[start:p.pos], pos: start}
	default:
		p.tok = token{kind: tokBad, text: string(c), pos: start}
		p.pos++
	}
}

// keyword reports whether the current token is the given
// case-insensitive keyword.
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) parseOr() (Expr, error) {
	e, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Expr{e}
	for p.keyword("or") {
		p.next()
		k, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return Or(kids...), nil
}

func (p *parser) parseAnd() (Expr, error) {
	e, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	kids := []Expr{e}
	for p.keyword("and") {
		p.next()
		k, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return And(kids...), nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.keyword("not") || p.tok.kind == tokLParen {
		if p.depth == MaxDepth {
			return nil, p.errorf("predicate nests deeper than %d", MaxDepth)
		}
		p.depth++
		defer func() { p.depth-- }()
	}
	if p.keyword("not") {
		p.next()
		k, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not(k), nil
	}
	if p.tok.kind == tokLParen {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errorf("expected ')', got %q", p.tok.text)
		}
		p.next()
		return e, nil
	}
	if p.keyword("true") {
		p.next()
		return And(), nil // the match-all identity
	}
	if p.keyword("false") {
		p.next()
		return Or(), nil // the match-nothing identity
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	if p.tok.kind != tokIdent {
		return nil, p.errorf("expected a column name, got %q", p.tok.text)
	}
	if p.leaves == MaxLeaves {
		return nil, p.errorf("predicate has more than %d comparisons", MaxLeaves)
	}
	p.leaves++
	col := p.tok.text
	p.next()
	if p.keyword("in") {
		p.next()
		return p.parseIn(col)
	}
	if p.tok.kind != tokOp {
		return nil, p.errorf("expected a comparison operator after %q, got %q", col, p.tok.text)
	}
	op, opPos := p.tok.text, p.tok.pos
	p.next()
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	switch op {
	case "=", "==":
		return Eq(col, v), nil
	case "!=":
		return Not(Eq(col, v)), nil
	case "<=":
		return Range(col, math.MinInt64, v), nil
	case ">=":
		return Range(col, v, math.MaxInt64), nil
	case "<":
		if v == math.MinInt64 {
			return In(col), nil // nothing is below MinInt64
		}
		return Range(col, math.MinInt64, v-1), nil
	case ">":
		if v == math.MaxInt64 {
			return In(col), nil // nothing is above MaxInt64
		}
		return Range(col, v+1, math.MaxInt64), nil
	default:
		// The parser has moved past the value by now; point the error
		// at the operator itself, not wherever lookahead landed.
		return nil, &ParseError{Offset: opPos, Token: op, Msg: fmt.Sprintf("unknown operator %q", op)}
	}
}

// parseIn parses the parenthesized value list of "col in (...)". An
// empty list is allowed and matches nothing.
func (p *parser) parseIn(col string) (Expr, error) {
	if p.tok.kind != tokLParen {
		return nil, p.errorf("expected '(' after 'in', got %q", p.tok.text)
	}
	p.next()
	var vals []int64
	if p.tok.kind != tokRParen {
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.tok.kind != tokComma {
				break
			}
			p.next()
		}
	}
	if p.tok.kind != tokRParen {
		return nil, p.errorf("expected ')' closing the in-list, got %q", p.tok.text)
	}
	p.next()
	return In(col, vals...), nil
}

func (p *parser) parseValue() (int64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected an integer, got %q", p.tok.text)
	}
	v, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q: %v", p.tok.text, err)
	}
	p.next()
	return v, nil
}
