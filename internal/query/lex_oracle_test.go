package query

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// lexOracle is the lexer as it was before byte classification became a
// table: unicode predicates and strings.ContainsRune on every byte, a
// token slice grown from nil. The table-driven lex must produce the same
// tokens, positions and errors on every input.
func lexOracle(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '"' || c == '\'':
			quote := input[i]
			j := i + 1
			for j < len(input) && input[j] != quote {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("query: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case c == '%':
			toks = append(toks, token{kind: tokPercent, text: "%", pos: i})
			i++
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < len(input) && input[i+1] == '=' {
				op += "="
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
		case unicode.IsDigit(c) || (c == '.' && i+1 < len(input) && unicode.IsDigit(rune(input[i+1]))):
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case oracleIdentRune(c):
			j := i
			for j < len(input) && oracleIdentRune(rune(input[j])) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

func oracleIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) ||
		strings.ContainsRune("_-@./:", c)
}

// lexMismatch reports how lex and lexOracle disagree on in, or "" when
// they agree on every token's kind, text and position and on the error.
func lexMismatch(in string) string {
	got, gotErr := lex(in, nil)
	want, wantErr := lexOracle(in)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("tokens %+v, oracle %+v", got, want)
	}
	return ""
}

// TestLexMatchesOracle runs every byte value through both lexers, alone
// and spliced into every position of every FuzzParse seed — bytes ≥ 0x80
// included, which the oracle reads as Latin-1 runes (0x85 and 0xA0 are
// spaces, 0xAA and 0xC0–0xFF mostly letters).
func TestLexMatchesOracle(t *testing.T) {
	for b := 0; b < 256; b++ {
		c := string([]byte{byte(b)})
		if d := lexMismatch(c); d != "" {
			t.Fatalf("byte %#x alone: %s", b, d)
		}
		for _, seed := range parseSeeds {
			for at := 0; at <= len(seed); at++ {
				in := seed[:at] + c + seed[at:]
				if d := lexMismatch(in); d != "" {
					t.Fatalf("%q: %s", in, d)
				}
			}
		}
	}
}

// FuzzLexMatchesOracle: the table-driven lexer and the oracle agree on
// arbitrary input.
func FuzzLexMatchesOracle(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if d := lexMismatch(in); d != "" {
			t.Fatalf("%q: %s", in, d)
		}
	})
}
