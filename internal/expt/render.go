// Package expt regenerates every table and figure in the paper's
// evaluation (§5) and runs the repo's own experiments and CI gates
// (scheduler scale, tenancy, commit-log torture, restart recovery,
// observability overhead, chaos soak). Each experiment returns typed
// results plus a formatted Table directly comparable with the paper.
// Registry lists them all, one row each; cmd/ffdl-bench is a loop over
// it. Rates and per-layer costs are not measured here: that is the
// real-clock benchmark's job (bench/).
package expt

import (
	"fmt"
	"strings"
)

// Table is a printable result grid.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&sb, "%s\n", t.Caption)
	}
	return sb.String()
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

func f1(f float64) string { return fmt.Sprintf("%.1f", f) }

func f2(f float64) string { return fmt.Sprintf("%.2f", f) }
