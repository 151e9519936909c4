package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("Title", "name", "value")
	tb.Row("short", 1)
	tb.Row("a-much-longer-name", 12345)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	// All data lines align: same trailing column position.
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
	l1, l2 := lines[3], lines[4] // title, header, rule, then data rows
	if len(l1) != len(l2) {
		t.Errorf("rows not aligned:\n%q\n%q", l1, l2)
	}
	if !strings.HasSuffix(l1, "1") || !strings.HasSuffix(l2, "12345") {
		t.Errorf("right alignment wrong:\n%q\n%q", l1, l2)
	}
}

func TestSeparator(t *testing.T) {
	tb := New("", "a")
	tb.Row("x")
	tb.Separator()
	tb.Row("y")
	out := tb.String()
	rules := 0
	for _, line := range strings.Split(out, "\n") {
		if line != "" && strings.Trim(line, "-") == "" {
			rules++
		}
	}
	if rules < 2 { // header rule + explicit separator
		t.Errorf("separators missing (%d rules):\n%s", rules, out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := New("", "v")
	tb.Row(3.14159)
	if !strings.Contains(tb.String(), "3.14") {
		t.Errorf("float not formatted:\n%s", tb.String())
	}
}

func TestRowsWiderThanHeader(t *testing.T) {
	tb := New("", "only")
	tb.Row("a", "b", "c")
	out := tb.String()
	if !strings.Contains(out, "c") {
		t.Errorf("extra cells dropped:\n%s", out)
	}
}
