package report

import (
	"errors"
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.Caption = "a caption"
	if err := tbl.AddRow("alpha", "1"); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
	if err := tbl.AddRowf("beta-longer", 2.5); err != nil {
		t.Fatalf("AddRowf: %v", err)
	}
	out := tbl.String()
	for _, want := range []string{"== demo ==", "name", "value", "alpha", "beta-longer", "2.5", "(a caption)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns must be aligned: every data line has the same prefix
	// width for the second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
	header := lines[1]
	if idx := strings.Index(header, "value"); idx < 0 {
		t.Fatalf("no value column")
	} else {
		for _, line := range lines[3:5] {
			if len(line) <= idx {
				t.Errorf("row %q shorter than header alignment", line)
			}
		}
	}
}

func TestTableShapeError(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	if err := tbl.AddRow("only-one"); !errors.Is(err, ErrShape) {
		t.Errorf("error = %v, want ErrShape", err)
	}
	if err := tbl.AddRowf(1, 2, 3); !errors.Is(err, ErrShape) {
		t.Errorf("AddRowf error = %v, want ErrShape", err)
	}
	if tbl.NumRows() != 0 {
		t.Errorf("failed rows were stored: %d", tbl.NumRows())
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("md", "x", "y")
	tbl.Caption = "cap"
	if err := tbl.AddRowf(1, "two"); err != nil {
		t.Fatalf("AddRowf: %v", err)
	}
	var b strings.Builder
	if err := tbl.WriteMarkdown(&b); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	out := b.String()
	for _, want := range []string{"### md", "| x | y |", "|---|---|", "| 1 | two |", "*cap*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFormatCellTypes(t *testing.T) {
	tbl := NewTable("f", "a", "b", "c", "d", "e")
	if err := tbl.AddRowf("s", 3, int64(4), 0.123456789, float32(2)); err != nil {
		t.Fatalf("AddRowf: %v", err)
	}
	row := tbl.Row(0)
	want := []string{"s", "3", "4", "0.1235", "2"}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("cell %d = %q, want %q", i, row[i], want[i])
		}
	}
}

func TestTableColumnsCopied(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	cols := tbl.Columns()
	cols[0] = "mutated"
	if tbl.Columns()[0] != "a" {
		t.Error("Columns() exposed internal storage")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "curve", XLabel: "n", YLabel: "queries"}
	s.Add(1, 10)
	s.Add(2, 20)
	if len(s.X) != 2 || len(s.Y) != 2 || s.X[1] != 2 || s.Y[1] != 20 {
		t.Errorf("series = %v, %v", s.X, s.Y)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("csv", "a", "b")
	tbl.Caption = "not emitted"
	if err := tbl.AddRow("x,with comma", "1"); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("csv missing header: %q", out)
	}
	if !strings.Contains(out, `"x,with comma",1`) {
		t.Errorf("csv missing quoted cell: %q", out)
	}
	if strings.Contains(out, "not emitted") {
		t.Errorf("csv leaked caption: %q", out)
	}
}

func TestPlotRendersSeries(t *testing.T) {
	a := &Series{Name: "probe"}
	b := &Series{Name: "sampling"}
	for i := 0; i <= 10; i++ {
		a.Add(float64(i), 0.5+float64(i)*0.05)
		b.Add(float64(i), 0.99)
	}
	p := NewPlot("success vs budget")
	p.Add(a)
	p.Add(b)
	out := p.String()
	for _, want := range []string{"-- success vs budget --", "*", "o", "probe", "sampling", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Rough shape: the header line carries the max y, the bottom the min.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("plot has %d lines", len(lines))
	}
}

func TestPlotEmpty(t *testing.T) {
	p := NewPlot("empty")
	if out := p.String(); !strings.Contains(out, "(no data)") {
		t.Errorf("empty plot = %q", out)
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	s := &Series{Name: "flat"}
	s.Add(1, 5)
	s.Add(1, 5) // single point, zero range in both axes
	p := NewPlot("flat")
	p.Add(s)
	out := p.String()
	if !strings.Contains(out, "*") {
		t.Errorf("degenerate plot missing mark:\n%s", out)
	}
}
