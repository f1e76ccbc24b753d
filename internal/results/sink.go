package results

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/table"
)

// Sink renders one figure's table incrementally: the title, header row
// and rule print at construction, and each data row prints the moment
// it is submitted — a long sweep shows its first rows while later cells
// are still running, instead of barriering on the whole matrix.
//
// Streaming forecloses the batch table's measure-then-render pass, so
// columns are sized from the headers alone and a wider cell simply
// widens its own row. What it preserves is determinism: cell text comes
// from the same table.Format the batch path uses, and rows are printed
// by index, so sweep output is byte-identical for any worker count,
// process count or store state.
//
// Rows must arrive one at a time in index order, as a Backend emits
// cells; a row out of order is a sticky error, like a write error, and
// both surface from Flush.
type Sink struct {
	w      io.Writer
	widths []int
	next   int
	rows   int
	err    error
}

// NewSink writes the title, header and rule immediately and returns the
// row sink. rows is the number of data rows the figure will emit;
// Flush reports any shortfall.
func NewSink(w io.Writer, title string, rows int, headers ...string) *Sink {
	s := &Sink{w: w, rows: rows}
	s.widths = make([]int, len(headers))
	for i, h := range headers {
		s.widths[i] = len(h)
	}
	if title != "" {
		s.printf("%s\n", title)
	}
	s.writeRow(headers)
	total := 0
	for i, wd := range s.widths {
		if i > 0 {
			total += 2
		}
		total += wd
	}
	s.printf("%s\n", strings.Repeat("-", total))
	return s
}

// Row prints data row i (0-based), which must be the next row.
func (s *Sink) Row(i int, cells ...any) {
	if s.err != nil {
		return
	}
	if i != s.next {
		s.err = fmt.Errorf("results: sink got row %d, want row %d", i, s.next)
		return
	}
	s.next++
	s.writeRow(table.Format(cells...))
}

// Flush verifies every row arrived and returns the first error.
func (s *Sink) Flush() error {
	if s.err != nil {
		return s.err
	}
	if s.next != s.rows {
		return fmt.Errorf("results: sink flushed with %d of %d rows", s.next, s.rows)
	}
	return nil
}

// writeRow prints one row under the header-derived widths. Like the
// batch table, every column — including the last — pads to width, so
// narrow cells align and wide cells overflow only their own row.
func (s *Sink) writeRow(cells []string) {
	var b strings.Builder
	for i := 0; i < len(s.widths) || i < len(cells); i++ {
		c := ""
		if i < len(cells) {
			c = cells[i]
		}
		wd := 0
		if i < len(s.widths) {
			wd = s.widths[i]
		}
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", wd, c)
	}
	b.WriteString("\n")
	s.printf("%s", b.String())
}

func (s *Sink) printf(format string, args ...any) {
	if s.err != nil {
		return
	}
	if _, err := fmt.Fprintf(s.w, format, args...); err != nil {
		s.err = err
	}
}
