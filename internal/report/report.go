// Package report renders the experiment results as aligned text or
// markdown tables and as "figure series" (x/y rows suitable for
// plotting). The benchmark harness (cmd/lcabench) and the Go benchmarks
// both print through this package, so paper-style tables come out of
// either path byte-identical.
package report

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrShape indicates a row whose arity does not match the header.
var ErrShape = errors.New("report: row length does not match header")

// Table is a simple column-aligned table with a title and caption.
type Table struct {
	Title   string
	Caption string
	header  []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, header: columns}
}

// Columns returns the header labels.
func (t *Table) Columns() []string {
	out := make([]string, len(t.header))
	copy(out, t.header)
	return out
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// AddRow appends a row of already-formatted cells. It returns ErrShape
// if the arity differs from the header.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.header) {
		return fmt.Errorf("%w: got %d cells, want %d", ErrShape, len(cells), len(t.header))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// AddRowf appends a row, formatting each value with the matching verb
// conventions: strings verbatim, integers with %d, floats with %.4g,
// everything else with %v.
func (t *Table) AddRowf(values ...any) error {
	cells := make([]string, len(values))
	for i, v := range values {
		cells[i] = formatCell(v)
	}
	return t.AddRow(cells...)
}

// formatCell renders one value with type-appropriate formatting.
func formatCell(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return fmt.Sprintf("%d", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%.4g", x)
	case float32:
		return fmt.Sprintf("%.4g", x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Row returns the cells of row i (a copy).
func (t *Table) Row(i int) []string {
	out := make([]string, len(t.rows[i]))
	copy(out, t.rows[i])
	return out
}

// WriteText renders the table as column-aligned plain text.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "(%s)\n", t.Caption)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMarkdown renders the table as GitHub-flavored markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.header)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Caption)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.WriteText(&b)
	return b.String()
}

// Series is a named sequence of (x, y) points — the textual stand-in
// for one curve of a figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// WriteCSV renders the table as RFC-4180 CSV (header row first). The
// title and caption are not emitted; CSV consumers want pure data.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return fmt.Errorf("report: write csv header: %w", err)
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: write csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("report: flush csv: %w", err)
	}
	return nil
}
