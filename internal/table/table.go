// Package table owns the layout of every plain-text table the tools
// print: a title line, a header row, a rule, then data rows, with two
// spaces between columns and every column, the last included, padded to
// its width. Table measures its widths from every cell before it
// renders; results.Sink, which prints rows as their cells arrive, takes
// them from the headers alone. Both write through Layout.
package table

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// New creates a table with a title line and column headers.
func New(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// Row appends one row; cells beyond the header count are kept and simply
// widen the table.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Rowf appends a row of formatted values: strings pass through, integers
// and floats get default formatting.
func (t *Table) Rowf(cells ...any) {
	t.Row(Format(cells...)...)
}

// Format renders Rowf-style values to cell strings: strings pass
// through, floats get two decimals, everything else default formatting.
// results.Sink shares it, so a streamed row prints the same cell text.
func Format(cells ...any) []string {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	return row
}

// String renders the table under widths measured from every cell.
func (t *Table) String() string {
	ncols := len(t.headers)
	for _, r := range t.rows {
		ncols = max(ncols, len(r))
	}
	widths := make(Layout, ncols)
	measure := func(r []string) {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title + "\n")
	}
	widths.Row(&b, t.headers)
	widths.Rule(&b)
	for _, r := range t.rows {
		widths.Row(&b, r)
	}
	return b.String()
}

// Layout is a table's column widths, and writes its header row, rule
// and data rows. The title line is the caller's.
type Layout []int

// Rule writes the line under the header row: a dash for every column
// and gutter.
func (l Layout) Rule(b *strings.Builder) {
	total := 0
	for i, w := range l {
		if i > 0 {
			total += 2
		}
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
}

// Row writes one row: a column per width, or per cell if there are
// more cells, two spaces apart, each padded to its width (a cell past
// the widths to none), so a wider cell overflows only its own row.
func (l Layout) Row(b *strings.Builder, cells []string) {
	for i := 0; i < len(l) || i < len(cells); i++ {
		c, w := "", 0
		if i < len(cells) {
			c = cells[i]
		}
		if i < len(l) {
			w = l[i]
		}
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(b, "%-*s", w, c)
	}
	b.WriteString("\n")
}
