package scenario

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/theory"
)

// TestRunParallelMatchesSequential pins the parallel matrix schedule to its
// sequential definition: Run farms the seed x arm cells out to the
// replication pool, but every cell is deterministic in (seed, arm) and
// collected by matrix index, so the Result — cells, verdict, notes, and the
// rendered reports — must be byte-identical to the plain seed-major,
// arm-minor loop Run replaced, at GOMAXPROCS 1 and 2. It holds a churn
// scenario and a continuous one (one simulator run per cell).
func TestRunParallelMatchesSequential(t *testing.T) {
	flash, err := Load(filepath.Join("..", "..", "scenarios", "flash-crowd.json"))
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Parse([]byte(strings.Replace(strings.Replace(continuous(), `"seeds": [1]`, `"seeds": [1, 2]`, 1),
		`"policy": "certainty-equivalent"}`, `"policy": "certainty-equivalent"}, {"name": "r", "policy": "certainty-equivalent", "plan": "robust"}`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []*Config{flash, cont} {
		// The historical sequential runner, inlined.
		seq := &Result{Config: cfg, Sqrt2Law: theory.ImpulsiveOverflow(cfg.Gateway.PQ)}
		for _, seed := range cfg.Seeds {
			for _, arm := range cfg.Arms {
				cell, err := runCell(context.Background(), cfg, arm, seed)
				if err != nil {
					t.Fatalf("%s: seed %d arm %q: %v", cfg.Workload.Kind, seed, arm.Name, err)
				}
				seq.Cells = append(seq.Cells, cell)
			}
		}
		grade(seq)
		sj, err := seq.JSONVerdict()
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			par, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Cells, seq.Cells) {
				t.Errorf("%s, GOMAXPROCS %d: cells diverge:\nparallel:   %+v\nsequential: %+v", cfg.Workload.Kind, procs, par.Cells, seq.Cells)
			}
			if par.Verdict != seq.Verdict || !reflect.DeepEqual(par.Notes, seq.Notes) || par.Effect != seq.Effect {
				t.Errorf("%s, GOMAXPROCS %d: grading diverges: parallel (%s, %q), sequential (%s, %q)",
					cfg.Workload.Kind, procs, par.Verdict, par.Effect, seq.Verdict, seq.Effect)
			}
			if par.Markdown() != seq.Markdown() {
				t.Errorf("%s, GOMAXPROCS %d: markdown reports differ", cfg.Workload.Kind, procs)
			}
			if pj, err := par.JSONVerdict(); err != nil || string(pj) != string(sj) {
				t.Errorf("%s, GOMAXPROCS %d: JSON reports differ (%v)", cfg.Workload.Kind, procs, err)
			}
		}
	}
}

// TestRunPropagatesCellError checks the pool path still surfaces a cell
// failure with the scenario/seed/arm context attached.
func TestRunPropagatesCellError(t *testing.T) {
	cfg, err := Load(filepath.Join("..", "..", "scenarios", "flash-crowd.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("cancelled context must fail the run")
	} else if s := fmt.Sprint(err); s == "" {
		t.Fatal("empty error")
	}
}

// TestGradeEmptyIsInconclusive: a matrix with nothing to grade — no cells
// at all, or cells none of the graders can complete a comparison on —
// must grade Inconclusive, never vacuously Confirmed.
func TestGradeEmptyIsInconclusive(t *testing.T) {
	for _, kind := range []HypothesisKind{HypDominance, HypInterval, HypInvariant} {
		r := &Result{Config: &Config{Check: Hypothesis{Kind: kind}}}
		grade(r)
		if r.Verdict != Inconclusive {
			t.Errorf("%s over zero cells graded %s, want Inconclusive", kind, r.Verdict)
		}
	}
	// An invariant hypothesis whose cells yield no checks or bounds has
	// zero graded comparisons even with cells present.
	r := &Result{
		Config: &Config{Check: Hypothesis{Kind: HypInvariant, Invariant: &Invariant{}}},
		Cells:  []CellResult{{Seed: 1, Arm: "a"}},
	}
	grade(r)
	if r.Verdict != Inconclusive {
		t.Errorf("invariant with no checks graded %s, want Inconclusive", r.Verdict)
	}
}

// TestValidatePositionalAxisErrors pins the positional form of the empty
// seeds/arms rejections.
func TestValidatePositionalAxisErrors(t *testing.T) {
	cfg := &Config{Name: "x"}
	if err := cfg.Validate(); err == nil || err.Error() != "scenario: seeds: at least one seed is required" {
		t.Errorf("empty seeds: %v", err)
	}
}
