package lang

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, from least to most severe.
const (
	Note Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Note:
		return "note"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is a single message attached to a source position.
type Diagnostic struct {
	Pos      Pos
	Severity Severity
	Message  string
}

func (d Diagnostic) Error() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Message)
}

// Diagnostics accumulates diagnostics, typically per compilation.
// The zero value is ready to use.
type Diagnostics struct {
	list []Diagnostic
}

// Errorf records an error diagnostic at pos.
func (ds *Diagnostics) Errorf(pos Pos, format string, args ...any) {
	ds.list = append(ds.list, Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(format, args...)})
}

// Warnf records a warning diagnostic at pos.
func (ds *Diagnostics) Warnf(pos Pos, format string, args ...any) {
	ds.list = append(ds.list, Diagnostic{Pos: pos, Severity: Warning, Message: fmt.Sprintf(format, args...)})
}

// All returns the recorded diagnostics in source order (stable for equal
// positions).
func (ds *Diagnostics) All() []Diagnostic {
	out := make([]Diagnostic, len(ds.list))
	copy(out, ds.list)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos.Before(out[j].Pos) })
	return out
}

// HasErrors reports whether any Error-severity diagnostic was recorded.
func (ds *Diagnostics) HasErrors() bool {
	for _, d := range ds.list {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Err returns an error summarizing all Error diagnostics, or nil.
func (ds *Diagnostics) Err() error {
	var msgs []string
	for _, d := range ds.All() {
		if d.Severity == Error {
			msgs = append(msgs, d.Error())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}
