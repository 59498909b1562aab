// Package experiments contains one runner per artifact of the paper's
// evaluation: the eq. 21 profile of Section 3 and Figures 5-12, plus the
// utilization, limit-process, regime and ablation studies listed in
// DESIGN.md. (Proposition 3.1 is the gateway runner's table; Proposition
// 3.3 is graded by the sqrt2-law scenarios.) Each runner produces a Table
// whose rows are the series the paper plots, at a selectable fidelity:
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
// paper's reported shapes. Every table is deterministic per seed, and the
// tests hold each runner to a committed copy of its seed-1 table: the cheap
// ones at Standard (results/standard/), the rest at Quick (testdata/quick/).
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

// cells formats every row for rendering; the three renderers below differ
// only in how they lay the strings out.
func (t *Table) cells() [][]string {
	out := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = formatCell(v)
		}
	}
	return out
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	lines := append([][]string{t.Columns}, t.cells()...)
	widths := make([]int, len(t.Columns))
	for _, row := range lines {
		for j, c := range row {
			widths[j] = max(widths[j], len(c))
		}
	}
	for _, row := range lines {
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
	for _, row := range append([][]string{t.Columns}, t.cells()...) {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
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
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	for _, row := range append([][]string{t.Columns, seps}, t.cells()...) {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
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

// Runner is one experiment of the registry.
type Runner struct {
	ID          string
	Description string
	// Run executes the experiment; seed feeds the simulators (ignored by
	// pure-theory runners).
	Run func(f Fidelity, seed uint64) ([]*Table, error)
}

// registry lists every experiment once, in the paper's order: the Section 3
// profile, Figures 2-12, the Section 5 studies, then the ablations and the
// extensions beyond the paper's figures. It is the only place a runner is
// named: -list, -all, Lookup and the golden test all read it.
var registry = []Runner{
	{"finite", "Eq. 21: overflow profile p_f(t) under finite flow holding times", runFiniteHolding},
	{"fig2", "Figure 2 (conceptual, realized): one trajectory of M_t, N_t and the aggregate load", runFig2},
	{"fig5", "Figure 5: overflow probability vs estimator memory Tm — theory (eq. 38) and simulation", runFig5},
	{"fig6", "Figure 6: adjusted certainty-equivalent target by inversion of eq. 38", runFig6},
	{"fig7", "Figure 7: simulated overflow probability using the adjusted target (robustness check)", runFig7},
	{"fig9", "Figure 9: overflow probability over (Tm/ThTilde, Tc) by numerical integration of eq. 37", runFig9},
	{"fig10", "Figure 10: simulated overflow probability over the Figure 9 parameter range", runFig10},
	{"fig11", "Figure 11: LRD video trace, memoryless estimation — p_f vs 1/ThTilde",
		func(f Fidelity, seed uint64) ([]*Table, error) { return runVideo(f, seed, false) }},
	{"fig12", "Figure 12: LRD video trace with Tm = ThTilde — robust across 1/ThTilde",
		func(f Fidelity, seed uint64) ([]*Table, error) { return runVideo(f, seed, true) }},
	{"util", "Eq. 40: utilization cost of conservative certainty-equivalent targets", runUtil},
	{"limit", "Limit-process simulation vs eq. 37 integral vs eq. 38 closed form", runLimit},
	{"regimes", "Masking and repair regimes (Section 5.3) quantified against eq. 37", runRegimes},
	{"abl-sampling", "Ablation: point-sampled (paper §5.2) vs time-weighted overflow estimation", runAblSampling},
	{"abl-filter", "Ablation: exponential filter vs sliding-window estimator at matched memory", runAblFilter},
	{"abl-variance", "Ablation: per-flow vs aggregate-only variance estimation; heterogeneity bias (§5.4)", runAblVariance},
	{"abl-theory", "Ablation: eq. 38 closed form vs eq. 37 integral across the separation parameter", runAblTheory},
	{"arrival", "Extension: overflow and blocking vs finite Poisson arrival rate (continuous load as the worst case)", runArrival},
	{"bayes", "Extension: estimator memory vs Bayesian prior smoothing (Gibbens-Kelly-Key, Section 6)", runBayes},
	{"utility", "Extension: adaptive-application utility under naive vs robust MBAC (Section 7)", runUtility},
	{"reneg", "Extension: RCBR renegotiation-failure probability vs overflow fraction (Section 2 service model)", runReneg},
	{"buffer", "Extension: buffered loss vs bufferless overflow — the Section 2 conservatism claim", runBuffer},
	{"holding", "Extension: heterogeneous holding-time distributions under the robust plan (Section 5.4)", runHolding},
	{"misdecl", "Extension: traffic mis-declaration — parameter-based AC vs MBAC (the paper's Section 1 motivation)", runMisdecl},
	{"transient", "Extension: overflow ramp p_f(t) after cold start vs the finite-t form of Prop. 4.2", runTransient},
	{"gateway", "online gateway soak ensemble: admitted flows vs m* (Prop 3.1) at three operating points", runGatewaySoak},
}

// Runners returns all experiments in registry order.
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
