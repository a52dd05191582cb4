// Package query implements Sommelier's DNN model query language (Figure
// 7 of the paper): a lexer, parser, typed AST, and validation for
// statements such as
//
//	SELECT CORR "resnet50@1" WITHIN 95%
//	ON memory <= 80% AND flops <= 50% AND latency <= 30ms
//	EXEC batch=8 device=gpu
//	PICK most_similar LIMIT 3
//
// Queries name a reference model (or a task category for a default
// reference), a functional-equivalence threshold, relative or absolute
// resource constraints, an optional execution spec, and final selection
// criteria. The engine in the root package executes parsed queries as a
// three-stage filter pipeline (§5.4).
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokPercent // '%'
	tokOp      // comparison operators
	tokEquals  // '=' inside exec-spec
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// Byte classes of the lexer's table. A byte's class is what the unicode
// predicates say about rune(b) — the byte read as a Latin-1 code point,
// so 0x85 and 0xA0 are spaces and most of 0xC0–0xFF are letters — so
// every input, non-ASCII bytes included, lexes exactly as the
// predicates classify it (lex_oracle_test.go checks this).
const (
	classSpace = 1 << iota // unicode.IsSpace
	classDigit             // unicode.IsDigit
	classIdent             // unicode.IsLetter or IsDigit, or one of "_-@./:"
)

var byteClass = func() (t [256]uint8) {
	for b := range t {
		c := rune(b)
		if unicode.IsSpace(c) {
			t[b] |= classSpace
		}
		if unicode.IsDigit(c) {
			t[b] |= classDigit
		}
		if unicode.IsLetter(c) || unicode.IsDigit(c) || strings.ContainsRune("_-@./:", c) {
			t[b] |= classIdent
		}
	}
	return t
}()

// lex splits the input into tokens, appending them to toks (Parse
// passes a stack buffer, so a query of ordinary length lexes without
// allocating). Identifiers and keywords are a single token kind; the
// parser matches keywords case-insensitively.
func lex(input string, toks []token) ([]token, error) {
	i := 0
	for i < len(input) {
		c := input[i]
		class := byteClass[c]
		switch {
		case class&classSpace != 0:
			i++
		case c == '"' || c == '\'':
			j := strings.IndexByte(input[i+1:], c)
			if j < 0 {
				return nil, fmt.Errorf("query: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : i+1+j], pos: i})
			i += j + 2
		case c == '%':
			toks = append(toks, token{kind: tokPercent, text: "%", pos: i})
			i++
		case c == '<' || c == '>':
			op := input[i : i+1]
			if i+1 < len(input) && input[i+1] == '=' {
				op = input[i : i+2]
				i++
			}
			toks = append(toks, token{kind: tokOp, text: op, pos: i})
			i++
		case c == '=':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokOp, text: "==", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokEquals, text: "=", pos: i})
				i++
			}
		case class&classDigit != 0 || (c == '.' && i+1 < len(input) && byteClass[input[i+1]]&classDigit != 0):
			j := i
			for j < len(input) && (byteClass[input[j]]&classDigit != 0 || input[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case class&classIdent != 0:
			j := i
			for j < len(input) && byteClass[input[j]]&classIdent != 0 {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", rune(c), i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}
