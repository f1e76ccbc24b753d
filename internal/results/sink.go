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
// A row prints before later cells exist, so its columns are as wide as
// the headers and a wider cell widens only its own row; package table
// owns that layout (table.Layout) and the cell text (table.Format).
// Rows are printed by index, so sweep output is byte-identical for any
// worker count, process count or store state.
//
// Rows must arrive one at a time in index order, as a Backend emits
// cells; a row out of order is a sticky error, like a write error, and
// both surface from Flush.
type Sink struct {
	w      io.Writer
	widths table.Layout
	next   int
	rows   int
	err    error
}

// NewSink writes the title, header and rule immediately and returns the
// row sink. rows is the number of data rows the figure will emit;
// Flush reports any shortfall.
func NewSink(w io.Writer, title string, rows int, headers ...string) *Sink {
	s := &Sink{w: w, rows: rows}
	s.widths = make(table.Layout, len(headers))
	for i, h := range headers {
		s.widths[i] = len(h)
	}
	if title != "" {
		s.write(title + "\n")
	}
	var b strings.Builder
	s.widths.Row(&b, headers)
	s.write(b.String())
	b.Reset()
	s.widths.Rule(&b)
	s.write(b.String())
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
	var b strings.Builder
	s.widths.Row(&b, table.Format(cells...))
	s.write(b.String())
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

// write writes line unless an earlier write or row failed; the first
// error sticks.
func (s *Sink) write(line string) {
	if s.err != nil {
		return
	}
	if _, err := io.WriteString(s.w, line); err != nil {
		s.err = err
	}
}
