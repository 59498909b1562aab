package scenario

import (
	"context"
	"fmt"

	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/theory"
)

// Result is one executed scenario: the full cell matrix, the graded
// verdict, and the per-seed grading notes the report quotes.
type Result struct {
	Config *Config `json:"config"`
	// Reference is the interval hypothesis's reference level (0 for other
	// kinds); Sqrt2Law is always the Prop 3.3 prediction for the
	// configured p_q, quoted in every report.
	Reference float64 `json:"reference,omitempty"`
	Sqrt2Law  float64 `json:"sqrt2_law"`

	Cells   []CellResult `json:"cells"`
	Verdict Verdict      `json:"verdict"`
	// Notes are the per-seed grading lines (one per comparison), in
	// matrix order.
	Notes []string `json:"notes"`
	// Effect is the one-line effect-size summary.
	Effect string `json:"effect,omitempty"`
}

// Matched reports whether the graded verdict equals the config's
// expectation.
func (r *Result) Matched() bool { return r.Verdict == r.Config.Expect }

// Run executes the scenario's seed x arm matrix and grades it. The matrix
// is ordered seed-major, arm-minor; every cell is deterministic in
// (seed, arm), so the whole Result — and the reports rendered from it — is
// reproducible byte for byte.
//
// Cells execute in parallel (sim.ForEach) but land in the slice by matrix
// index, and each derives all of its randomness from its own (seed, arm)
// pair, which is what makes the parallel schedule invisible in the output.
func Run(ctx context.Context, cfg *Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Sqrt2Law: theory.ImpulsiveOverflow(cfg.Gateway.PQ)}
	nArms := len(cfg.Arms)
	cells := make([]CellResult, len(cfg.Seeds)*nArms)
	err := sim.ForEach(ctx, len(cells), func(i int) error {
		seed, arm := cfg.Seeds[i/nArms], cfg.Arms[i%nArms]
		cell, err := runCell(ctx, cfg, arm, seed)
		if err != nil {
			return fmt.Errorf("scenario %s: seed %d arm %q: %w", cfg.Name, seed, arm.Name, err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	grade(res)
	return res, nil
}

// cellAt finds the matrix cell for (seed, arm).
func (r *Result) cellAt(seed uint64, arm string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Seed == seed && r.Cells[i].Arm == arm {
			return &r.Cells[i]
		}
	}
	return nil
}

// grade applies the typed hypothesis to the finished matrix. A matrix
// with nothing to grade — no cells, or no comparison any grader could
// complete — is Inconclusive, never vacuously Confirmed: a Confirmed
// verdict must always be backed by at least one graded comparison.
func grade(r *Result) {
	if len(r.Cells) == 0 {
		r.Verdict = Inconclusive
		r.Notes = append(r.Notes, "no cells to grade — inconclusive")
		return
	}
	switch r.Config.Check.Kind {
	case HypDominance:
		gradeDominance(r)
	case HypInterval:
		gradeInterval(r)
	case HypInvariant:
		gradeInvariant(r)
	}
}

func gradeDominance(r *Result) {
	d := r.Config.Check.Dominance
	verdict := Confirmed
	graded := 0
	ratioSum, ratioN := 0.0, 0
	for _, seed := range r.Config.Seeds {
		a, b := r.cellAt(seed, d.A), r.cellAt(seed, d.B)
		va, vb := a.Metric(d.Metric), b.Metric(d.Metric)
		pass := false
		switch {
		case va == 0 && vb == 0:
			// No signal on either arm: the comparison is vacuous.
			if verdict == Confirmed {
				verdict = Inconclusive
			}
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d: %s is 0 on both arms — inconclusive", seed, d.Metric))
			continue
		case d.Relation == RelGreater:
			pass = va > vb && va >= d.MinRatio*vb
		case d.Relation == RelLess:
			pass = va < vb && va*d.MinRatio <= vb
		}
		if vb > 0 && va > 0 {
			ratioSum += va / vb
			ratioN++
		}
		graded++
		if !pass {
			verdict = Refuted
		}
		r.Notes = append(r.Notes, fmt.Sprintf("seed %d: %s(%s) = %.6g vs %s(%s) = %.6g, want %s (min ratio %g): %s",
			seed, d.Metric, d.A, va, d.Metric, d.B, vb, d.Relation, d.MinRatio, passString(pass)))
	}
	if ratioN > 0 {
		r.Effect = fmt.Sprintf("mean %s ratio %s/%s = %.4g over %d seeds", d.Metric, d.A, d.B, ratioSum/float64(ratioN), ratioN)
	}
	if graded == 0 {
		verdict = Inconclusive
	}
	r.Verdict = verdict
}

// referenceLevel is the level an interval hypothesis grades against.
func referenceLevel(r *Result) float64 {
	iv := r.Config.Check.Interval
	switch iv.ref {
	case refSqrt2Law:
		return r.Sqrt2Law
	case refPQ:
		return r.Config.Gateway.PQ
	case refMasking:
		// Eq. 41: in the masking regime the admission-time estimation error
		// is still present when the flow pool turns over, inflating the
		// overflow probability to (SVR*alpha_q + 1) * p_q. The system's
		// mu/sigma come from the churn workload's flow-rate marginal.
		m, err := buildModel(&r.Config.Workload)
		if err != nil {
			return 0
		}
		ts := m.Stats()
		return theory.MaskingOverflow(theory.System{Mu: ts.Mean, Sigma: ts.StdDev()}, r.Config.Gateway.PQ)
	default: // refValue
		return iv.Value
	}
}

func gradeInterval(r *Result) {
	iv := r.Config.Check.Interval
	r.Reference = referenceLevel(r)
	var want qos.Verdict
	if iv.QoSVerdict != "" {
		want, _ = qos.ParseVerdict(iv.QoSVerdict)
	}
	verdict := Confirmed
	graded := 0
	ratioSum, ratioN := 0.0, 0
	for i := range r.Cells {
		cell := &r.Cells[i]
		e := cell.Overflow
		if cell.QoS == qos.VerdictInsufficient && iv.QoSVerdict != qos.VerdictInsufficient.String() {
			if verdict == Confirmed {
				verdict = Inconclusive
			}
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d/%s: %d window samples — insufficient to grade", cell.Seed, cell.Arm, e.N))
			continue
		}
		pass := false
		switch iv.Mode {
		case IntervalCovers:
			pass = e.Lo <= r.Reference && r.Reference <= e.Hi
		case IntervalAtMost:
			pass = e.Lo <= r.Reference
		case IntervalAtLeast:
			pass = e.Hi >= r.Reference
		}
		note := fmt.Sprintf("seed %d/%s: p_f = %.4g [%.4g, %.4g] (n=%d) %s reference %.4g",
			cell.Seed, cell.Arm, e.P, e.Lo, e.Hi, e.N, iv.Mode, r.Reference)
		if iv.QoSVerdict != "" {
			if cell.QoS != want {
				pass = false
			}
			note += fmt.Sprintf(", qos %s (want %s)", cell.QoS, want)
		}
		graded++
		if !pass {
			verdict = Refuted
		}
		r.Notes = append(r.Notes, note+": "+passString(pass))
		if r.Reference > 0 {
			ratioSum += e.P / r.Reference
			ratioN++
		}
	}
	if ratioN > 0 {
		r.Effect = fmt.Sprintf("mean p_f / reference = %.4g over %d cells", ratioSum/float64(ratioN), ratioN)
	}
	if graded == 0 {
		verdict = Inconclusive
	}
	r.Verdict = verdict
}

func gradeInvariant(r *Result) {
	inv := r.Config.Check.Invariant
	verdict := Confirmed
	graded := 0
	for i := range r.Cells {
		cell := &r.Cells[i]
		for _, check := range inv.Checks {
			holds := false
			detail := ""
			switch check {
			case InvLifecycle:
				holds = cell.Stats.LifecycleBalanced()
				detail = fmt.Sprintf("admitted %d = departed %d + expired %d + active %d",
					cell.Stats.Admitted, cell.Stats.Departed, cell.Stats.Expired, cell.Stats.Active)
			case InvExpiredFlows:
				holds = cell.Stats.Expired > 0
				detail = fmt.Sprintf("expired %d", cell.Stats.Expired)
			case InvRejectedFlows:
				holds = cell.Stats.Rejected > 0
				detail = fmt.Sprintf("rejected %d", cell.Stats.Rejected)
			case InvSubstrateIdentity:
				holds = cell.NetMatched
				detail = fmt.Sprintf("in-process twin matched: %t", cell.NetMatched)
			case InvMigratedFlows:
				holds = cell.Migrations > 0
				detail = fmt.Sprintf("migrated %d", cell.Migrations)
			}
			graded++
			if !holds {
				verdict = Refuted
			}
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d/%s: %s (%s): %s",
				cell.Seed, cell.Arm, check, detail, passString(holds)))
		}
		for _, b := range inv.Bounds {
			v := cell.Metric(b.Metric)
			// A zero metric means the substrate never produced it — the
			// bound must fail rather than pass vacuously.
			holds := v > 0 && v <= b.AtMost
			graded++
			if !holds {
				verdict = Refuted
			}
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d/%s: %s = %.4g in (0, %.4g]: %s",
				cell.Seed, cell.Arm, b.Metric, v, b.AtMost, passString(holds)))
		}
	}
	if graded == 0 {
		verdict = Inconclusive
	}
	r.Verdict = verdict
}

func passString(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
