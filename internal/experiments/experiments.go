// Package experiments contains one runner per artifact of the paper's
// evaluation: the quantitative claims of Section 3 (Propositions 3.1/3.3,
// eq. 21) and Figures 5-12, plus the utilization, limit-process, regime and
// ablation studies listed in DESIGN.md. Each runner produces a Table whose
// rows are the series the paper plots, at a selectable fidelity:
//
//	Quick    — seconds per experiment; relaxed targets where needed so that
//	           overflow is frequent enough to measure fast. Shapes hold,
//	           absolute levels are the relaxed-target ones.
//	Standard — minutes per experiment; paper parameters with a bounded time
//	           budget (confidence intervals may stay wider than ±20%).
//	Full     — the paper's Section 5.2 stopping rules drive the run length;
//	           hours for the simulation-heavy figures.
//
// EXPERIMENTS.md records the output of a full regeneration next to the
// paper's reported shapes.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/enum"
)

// Fidelity selects the effort level of simulation-backed experiments.
type Fidelity int

// Fidelity levels; see the package comment.
const (
	Quick Fidelity = iota
	Standard
	Full
	fidelityEnd // sentinel: fidelityNames names every constant above
)

var fidelityNames = enum.New(Quick, fidelityEnd, "quick", "standard", "full")

// fidelityAliases are the flag shorthands ParseFidelity accepts beside the
// names.
var fidelityAliases = map[string]Fidelity{"q": Quick, "std": Standard, "s": Standard, "f": Full}

// ParseFidelity maps a flag string — a name or a shorthand, in any case —
// to a Fidelity.
func ParseFidelity(s string) (Fidelity, error) {
	s = strings.ToLower(s)
	if f, ok := fidelityAliases[s]; ok {
		return f, nil
	}
	return fidelityNames.Parse("experiments: unknown fidelity", s)
}

// String implements fmt.Stringer.
func (f Fidelity) String() string { return fidelityNames.String(f) }

// Table is the output of one experiment: named columns, float rows, and
// free-form notes (parameters, caveats).
type Table struct {
	ID      string // experiment id, e.g. "fig5"
	Title   string
	Columns []string
	Rows    [][]float64
	Notes   []string
}

// AddRow appends a row; it panics if the width does not match Columns,
// which would be a programming error in a runner.
func (t *Table) AddRow(vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row width %d != %d columns in %s", len(vals), len(t.Columns), t.ID))
	}
	t.Rows = append(t.Rows, vals)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for j, c := range t.Columns {
		widths[j] = len(c)
	}
	for i, row := range t.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = formatCell(v)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	for j, c := range t.Columns {
		if j > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%*s", widths[j], c)
	}
	fmt.Fprintln(w)
	for _, row := range cells {
		for j, c := range row {
			if j > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%*s", widths[j], c)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV with a comment header.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = formatCell(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the table as a GitHub-flavored markdown section
// (used by cmd/figures -md to build EXPERIMENTS-style reports).
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = formatCell(v)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "*%s*\n\n", n); err != nil {
			return err
		}
	}
	return nil
}

// formatCell renders a float compactly: integers plainly, small/large
// magnitudes in scientific notation.
func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case math.Abs(v) >= 1e-3 && math.Abs(v) < 1e5:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// Runner is one registered experiment.
type Runner struct {
	ID          string
	Description string
	// Run executes the experiment; seed feeds the simulators (ignored by
	// pure-theory runners).
	Run func(f Fidelity, seed uint64) ([]*Table, error)
}

// registry is populated by init functions across this package's files.
var registry []Runner

// register adds a runner; called from init functions.
func register(r Runner) { registry = append(registry, r) }

// Runners returns all registered experiments in registration order.
func Runners() []Runner { return append([]Runner(nil), registry...) }

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
