package minipar

import (
	"fmt"
	"strconv"
	"strings"
)

// spellings maps every keyword and punctuation spelling of tokNames to its
// kind; EOF, INT and IDENT name classes, not spellings, and stay out.
var spellings = func() map[string]TokKind {
	m := make(map[string]TokKind, len(tokNames))
	for k, s := range tokNames {
		if k > TokIdent {
			m[s] = k
		}
	}
	return m
}()

// Lex tokenizes MiniPar source. Comments run from "//" to end of line.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	for i := 0; i < len(src); {
		c, j := src[i], i+1 // j ends the lexeme at i
		switch {
		case c == '\n':
			line, col, i = line+1, 1, j
			continue
		case c == ' ' || c == '\t' || c == '\r':
		case strings.HasPrefix(src[i:], "//"):
			j = len(src)
			if k := strings.IndexByte(src[i:], '\n'); k >= 0 {
				j = i + k
			}
		case isDigit(c):
			for j < len(src) && isDigit(src[j]) {
				j++
			}
			v, err := strconv.ParseInt(src[i:j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("minipar: %d:%d: bad integer %q: %w", line, col, src[i:j], err)
			}
			toks = append(toks, Token{Kind: TokInt, Int: v, Line: line, Col: col})
		case isIdentStart(c):
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			kind, ok := spellings[src[i:j]]
			if !ok {
				kind = TokIdent
			}
			toks = append(toks, Token{Kind: kind, Text: src[i:j], Line: line, Col: col})
		default:
			// Punctuation, longest match first: no spelling is longer than two bytes.
			if j < len(src) {
				if _, ok := spellings[src[i:j+1]]; ok {
					j++
				}
			}
			kind, ok := spellings[src[i:j]]
			if !ok {
				return nil, fmt.Errorf("minipar: %d:%d: unexpected character %q", line, col, string(c))
			}
			toks = append(toks, Token{Kind: kind, Text: src[i:j], Line: line, Col: col})
		}
		col += j - i
		i = j
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}
