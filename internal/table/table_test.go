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
