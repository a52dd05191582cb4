package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse turns a query string into a validated AST.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) keyword(word string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(word string) error {
	if !p.keyword(word) {
		return fmt.Errorf("query: expected %s, got %s", strings.ToUpper(word), p.cur())
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Threshold: 0.95, Pick: PickMostSimilar}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Optional noise word "model(s)".
	if p.keyword("model") || p.keyword("models") {
	}

	sawTarget := false
	for p.cur().kind != tokEOF {
		switch {
		case p.keyword("CORR"):
			name, err := p.parseName("reference model")
			if err != nil {
				return nil, err
			}
			q.Ref = name
			sawTarget = true
		case p.keyword("TASK"):
			name, err := p.parseName("task category")
			if err != nil {
				return nil, err
			}
			q.Task = name
			sawTarget = true
		case p.keyword("WITHIN"):
			v, isPct, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if isPct {
				v /= 100
			}
			q.Threshold = v
		case p.keyword("ON"):
			for {
				c, err := p.parseConstraint()
				if err != nil {
					return nil, err
				}
				q.Constraints = append(q.Constraints, c)
				if !p.keyword("AND") {
					break
				}
			}
		case p.keyword("EXEC"):
			for p.cur().kind == tokIdent && p.peekIs(tokEquals) {
				if q.Exec == nil {
					q.Exec = make(map[string]string)
				}
				key := p.next().text
				p.next() // '='
				val := p.cur()
				if val.kind != tokIdent && val.kind != tokNumber && val.kind != tokString {
					return nil, fmt.Errorf("query: expected value after %s=, got %s", key, val)
				}
				p.next()
				q.Exec[key] = val.text
			}
		case p.keyword("PICK"):
			t := p.cur()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("query: expected PICK criterion, got %s", t)
			}
			p.next()
			q.Pick = PickKind(strings.ToLower(t.text))
		case p.keyword("LIMIT"):
			t := p.cur()
			if t.kind != tokNumber {
				return nil, fmt.Errorf("query: expected LIMIT count, got %s", t)
			}
			p.next()
			n, err := strconv.Atoi(t.text)
			if err != nil {
				return nil, fmt.Errorf("query: bad LIMIT %q", t.text)
			}
			q.Limit = n
		default:
			return nil, fmt.Errorf("query: unexpected token %s", p.cur())
		}
	}
	if !sawTarget {
		return nil, fmt.Errorf("query: missing CORR or TASK clause")
	}
	return q, nil
}

func (p *parser) peekIs(kind tokenKind) bool {
	if p.pos+1 >= len(p.toks) {
		return false
	}
	return p.toks[p.pos+1].kind == kind
}

func (p *parser) parseName(what string) (string, error) {
	t := p.cur()
	if t.kind != tokIdent && t.kind != tokString {
		return "", fmt.Errorf("query: expected %s name, got %s", what, t)
	}
	p.next()
	return t.text, nil
}

// parseNumber reads a number with an optional trailing '%'.
func (p *parser) parseNumber() (float64, bool, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, false, fmt.Errorf("query: expected a number, got %s", t)
	}
	p.next()
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, false, fmt.Errorf("query: bad number %q", t.text)
	}
	if p.cur().kind == tokPercent {
		p.next()
		return v, true, nil
	}
	return v, false, nil
}

func (p *parser) parseConstraint() (Constraint, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return Constraint{}, fmt.Errorf("query: expected a metric, got %s", t)
	}
	p.next()
	c := Constraint{Metric: Metric(strings.ToLower(t.text))}

	op := p.cur()
	if op.kind != tokOp {
		return Constraint{}, fmt.Errorf("query: expected a comparison after %s, got %s", c.Metric, op)
	}
	p.next()
	switch op.text {
	case "<":
		c.Op = OpLT
	case "<=":
		c.Op = OpLE
	case ">":
		c.Op = OpGT
	case ">=":
		c.Op = OpGE
	case "==":
		c.Op = OpEQ
	default:
		return Constraint{}, fmt.Errorf("query: unknown operator %q", op.text)
	}

	v, isPct, err := p.parseNumber()
	if err != nil {
		return Constraint{}, err
	}
	c.Value = v
	if isPct {
		c.Unit = UnitRelative
		return c, nil
	}
	// Optional unit identifier (MB, GB, GFLOPS, TFLOPS, ms).
	if u := p.cur(); u.kind == tokIdent {
		switch strings.ToUpper(u.text) {
		case "MB":
			c.Unit = UnitMB
		case "GB":
			c.Unit = UnitGB
		case "GFLOPS", "GFLOP":
			c.Unit = UnitGFLOPs
		case "TFLOPS", "TFLOP":
			c.Unit = UnitTFLOPs
		case "MS":
			c.Unit = UnitMS
		default:
			return c, nil // not a unit; belongs to the next clause
		}
		p.next()
	}
	return c, nil
}
