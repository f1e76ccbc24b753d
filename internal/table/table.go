// Package table renders the experiment harness's plain-text tables with
// aligned columns — each experiment prints the same rows the thesis's
// figures report, so output is diffable against EXPERIMENTS.md.
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
// The streaming results sink shares it so streamed rows and batch tables
// print identical cell text.
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

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for i, w := range widths {
		if i > 0 {
			total += 2
		}
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
