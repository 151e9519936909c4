// Package report renders fixed-width text tables for the experiment
// harness, in the spirit of the paper's Tables 1–3.
package report

import (
	"fmt"
	"strings"
)

// Table accumulates rows of string cells and renders them aligned.
type Table struct {
	Title  string
	header []string
	rows   [][]string
	seps   map[int]bool // row indexes after which to draw a separator
}

// New returns a table with the given title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, header: header, seps: map[int]bool{}}
}

// Row appends a row; cells render with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Separator draws a horizontal rule after the current last row.
func (t *Table) Separator() { t.seps[len(t.rows)-1] = true }

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}

	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&sb, "  %*s", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	rule := func() {
		n := 0
		for _, w := range widths {
			n += w + 2
		}
		sb.WriteString(strings.Repeat("-", n-2))
		sb.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		rule()
	}
	for i, r := range t.rows {
		writeRow(r)
		if t.seps[i] {
			rule()
		}
	}
	return sb.String()
}
