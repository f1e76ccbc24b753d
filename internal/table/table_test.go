package table

import (
	"strings"
	"testing"
)

func TestAlignment(t *testing.T) {
	tb := New("Demo", "name", "value")
	tb.Row("a", "1")
	tb.Row("longer", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Demo") {
		t.Fatalf("title missing: %q", lines[0])
	}
	// The value column must start at the same offset in both rows.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "22") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestRowfFormatting(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.Rowf("x", 42, 0.5)
	out := tb.String()
	for _, want := range []string{"x", "42", "0.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRaggedRows(t *testing.T) {
	tb := New("", "a")
	tb.Row("1", "2", "3") // wider than the header
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cells dropped:\n%s", out)
	}
}

// TestLayoutBytes pins the layout both renderers share: a two-space
// gutter, every column padded to its width (the last included), a cell
// past the widths padded to none, and a rule under the columns alone.
func TestLayoutBytes(t *testing.T) {
	tb := New("T", "a", "bb")
	tb.Row("xyz", "1")
	want := "T\n" +
		"a    bb\n" +
		"-------\n" +
		"xyz  1 \n"
	if got := tb.String(); got != want {
		t.Errorf("measured table:\n%q\nwant\n%q", got, want)
	}
	var b strings.Builder
	l := Layout{1, 2}
	l.Row(&b, []string{"xyz", "1", "extra"})
	l.Rule(&b)
	if want := "xyz  1   extra\n-----\n"; b.String() != want {
		t.Errorf("header widths:\n%q\nwant\n%q", b.String(), want)
	}
}
