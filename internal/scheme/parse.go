package scheme

import (
	"fmt"
	"strconv"
	"strings"

	"lwcomp/internal/core"
)

// Parse builds a (possibly composite) scheme from an expression in
// the same syntax Form.Describe emits:
//
//	expr    := name [ '[' int ']' ] [ '(' child '=' expr { ',' child '=' expr } ')' ]
//	name    := registered scheme name, or one of the model compositions
//	           "pfor" / "stepns" / "linearns" / "poly2ns" / "plinearns"
//
// The optional bracket argument sets the scheme's main tuning knob
// (segment length for for/step/linear/poly2 and the model compositions,
// block length for vns).
// Examples:
//
//	ns
//	for[1024](offsets=ns, refs=ns)
//	rle(lengths=ns, values=delta(deltas=vns[32]))
//	pfor[1024]
func Parse(expr string) (core.Scheme, error) {
	p := &parser{src: expr}
	s, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("scheme: trailing input at %d in %q", p.pos, expr)
	}
	return s, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("scheme: expected identifier at %d in %q", p.pos, p.src)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expr() (core.Scheme, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	arg := 0
	hasArg := false
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '[' {
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], ']')
		if end < 0 {
			return nil, fmt.Errorf("scheme: unterminated '[' at %d", p.pos-1)
		}
		v, err := strconv.Atoi(strings.TrimSpace(p.src[p.pos : p.pos+end]))
		if err != nil {
			return nil, fmt.Errorf("scheme: bad argument %q: %v", p.src[p.pos:p.pos+end], err)
		}
		arg = v
		hasArg = true
		p.pos += end + 1
	}
	base, err := ByName(name, arg, hasArg)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return base, nil
	}
	p.pos++
	inner := map[string]core.Scheme{}
	for {
		child, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return nil, fmt.Errorf("scheme: expected '=' after child %q at %d", child, p.pos)
		}
		p.pos++
		sub, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, dup := inner[child]; dup {
			return nil, fmt.Errorf("scheme: duplicate child %q", child)
		}
		inner[child] = sub
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		break
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, fmt.Errorf("scheme: expected ')' at %d in %q", p.pos, p.src)
	}
	p.pos++
	return core.Compose(base, inner), nil
}

// ByName constructs a scheme by name with an optional integer tuning
// argument (segment length or block length, depending on the scheme).
func ByName(name string, arg int, hasArg bool) (core.Scheme, error) {
	argOr := func(def int) int {
		if hasArg {
			return arg
		}
		return def
	}
	switch name {
	case IDName:
		return ID{}, nil
	case ConstName:
		return Const{}, nil
	case NSName:
		return NS{}, nil
	case VarintName:
		return Varint{}, nil
	case EliasName:
		return Elias{}, nil
	case VNSName:
		return VNS{Block: argOr(0)}, nil
	case DeltaName:
		return Delta{}, nil
	case RLEName:
		return RLE{}, nil
	case RPEName:
		return RPE{}, nil
	case FORName:
		return FOR{SegLen: argOr(0)}, nil
	case StepName:
		return Step{SegLen: argOr(0)}, nil
	case LinearName:
		return Linear{SegLen: argOr(0)}, nil
	case DictName:
		return Dict{}, nil
	case Poly2Name:
		return Poly2{SegLen: argOr(0)}, nil
	case "pfor":
		return PFORComposite(argOr(0)), nil
	case "stepns":
		return StepNS(argOr(0)), nil
	case "linearns":
		return LinearNS(argOr(0)), nil
	case "poly2ns":
		return Poly2NS(argOr(0)), nil
	case "plinearns":
		return PatchedLinearNS(argOr(0)), nil
	case PlusName, PatchName:
		return nil, fmt.Errorf("scheme: %q needs a model to fit (use stepns/linearns/poly2ns/pfor/plinearns)", name)
	}
	return nil, fmt.Errorf("%w: %q", core.ErrUnknownScheme, name)
}
