// Package benchkit provides the small measurement and reporting toolkit
// used by cmd/benchsuite to regenerate the paper's tables and figures:
// repeated timing with minimum/median selection, aligned-table and CSV
// emission, and ratio formatting.
package benchkit

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Measure runs f reps times and returns the minimum wall-clock duration
// (the conventional low-noise estimator for CPU-bound code). reps < 1 is
// treated as 1.
func Measure(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// Seconds renders a duration as seconds with three significant decimals.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// Ratio renders base/other as a speedup factor ("1.75x").
func Ratio(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(other))
}

// Table accumulates rows and prints them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = Seconds(v)
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// FprintCSV writes the table as CSV (cells containing commas or quotes
// are quoted).
func (t *Table) FprintCSV(w io.Writer) {
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
