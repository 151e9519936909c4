// Package lang provides source positions, spans, and diagnostics shared by
// the MJ frontend (lexer, parser) and all downstream analyses.
//
// MJ is the Java-subset input language of the security policy oracle; see
// DESIGN.md for the scope of the subset.
package lang

import "fmt"

// Pos is a position in an MJ source file. Line and Col are 1-based;
// Offset is the 0-based byte offset. The zero Pos is "no position".
type Pos struct {
	File   string
	Offset int
	Line   int
	Col    int
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders the position as file:line:col, omitting empty parts.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Before reports whether p precedes q. Positions in different files are
// ordered by file name.
func (p Pos) Before(q Pos) bool {
	if p.File != q.File {
		return p.File < q.File
	}
	return p.Offset < q.Offset
}

// Span is a half-open source range [Start, End).
type Span struct {
	Start Pos
	End   Pos
}

// String renders the span's start position.
func (s Span) String() string { return s.Start.String() }
