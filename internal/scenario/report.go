package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The FINDINGS report: a deterministic markdown rendering of a Result in
// the house experiment-report style — status and hypothesis up front,
// experiment design (configurations, controlled and varied variables,
// seeds), per-seed result tables, effect sizes, and the verdict statement.
// Nothing time- or host-dependent goes in: the same seeds must reproduce
// the report byte for byte, which is what the golden test asserts.

// Markdown renders the FINDINGS report.
func (r *Result) Markdown() string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "# FINDINGS: %s\n\n", cfg.Title)
	fmt.Fprintf(&b, "**Scenario**: `%s`\n", cfg.Name)
	fmt.Fprintf(&b, "**Status**: %s\n", statusLine(r.Verdict))
	fmt.Fprintf(&b, "**Type**: %s hypothesis, graded over %d seed(s) x %d arm(s)\n\n",
		cfg.Check.Kind, len(cfg.Seeds), len(cfg.Arms))

	b.WriteString("## Hypothesis\n\n")
	fmt.Fprintf(&b, "> %s\n\n", cfg.HypothesisText)

	b.WriteString("## Experiment Design\n\n")
	r.writeDesign(&b)

	b.WriteString("## Results\n\n")
	r.writeResults(&b)

	if len(r.Notes) > 0 {
		b.WriteString("### Grading\n\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
		b.WriteString("\n")
	}

	b.WriteString("## Verdict\n\n")
	fmt.Fprintf(&b, "**%s**", strings.ToUpper(r.Verdict.String()))
	if r.Effect != "" {
		fmt.Fprintf(&b, " — %s", r.Effect)
	}
	b.WriteString("\n")
	if r.Verdict != cfg.Expect {
		fmt.Fprintf(&b, "\n> ⚠ expected **%s** — this scenario's expectation does not hold.\n", cfg.Expect)
	}
	return b.String()
}

func statusLine(v Verdict) string {
	switch v {
	case Confirmed:
		return "✅ CONFIRMED"
	case Refuted:
		return "❌ REFUTED"
	}
	return "❔ INCONCLUSIVE"
}

func (r *Result) writeDesign(b *strings.Builder) {
	cfg := r.Config
	w := cfg.Workload
	switch w.Kind {
	case WorkloadImpulsive:
		fmt.Fprintf(b, "- **Workload**: impulsive (Prop 3.3 fill-then-redraw steady state), SVR %g, %d replications per seed\n",
			w.SVR, w.Replications)
	case WorkloadChurn:
		fmt.Fprintf(b, "- **Workload**: churn, lambda %g, mean hold %g, duration %g, tick %g", w.Lambda, w.Hold, w.Duration, w.Tick)
		if w.ArrivalCV != 0 && w.ArrivalCV != 1 {
			fmt.Fprintf(b, ", Gamma arrivals CV %g", w.ArrivalCV)
		}
		b.WriteString("\n")
		writeFlowModel(b, w)
		if w.Crowd != nil {
			fmt.Fprintf(b, "- **Flash crowd**: %gx arrivals over [%g, %g)\n", w.Crowd.Factor, w.Crowd.From, w.Crowd.To)
		}
		if w.Clients != nil {
			fmt.Fprintf(b, "- **Clients**: leak probability %g, declared-rate factor %g\n", w.Clients.LeakP, w.Clients.Lie)
		}
		if w.Renegotiate {
			b.WriteString("- **Renegotiation**: flows redraw their rate at every segment boundary (RCBR dynamics)\n")
		}
		if w.Shift != nil {
			fmt.Fprintf(b, "- **Model shift**: flows arriving from t=%g draw from %s\n", w.Shift.At, modelLine(&w.Shift.Model))
		}
	case WorkloadContinuous:
		fmt.Fprintf(b, "- **Workload**: continuous (Section 4 infinite backlog), mean hold %g, %g time units measured after the sim.Warmup warm-up, stopping rule off, p_f from point samples\n",
			w.Hold, w.Duration)
		writeFlowModel(b, w)
	}
	g := cfg.Gateway
	fmt.Fprintf(b, "- **Gateway**: capacity %g, target p_q %g, estimator %s", g.Capacity, g.PQ, g.Estimator)
	if g.Memory > 0 {
		fmt.Fprintf(b, " (memory %g)", g.Memory)
	}
	if g.Adaptive {
		th := g.Th
		if th == 0 {
			th = cfg.Workload.Hold
		}
		fmt.Fprintf(b, ", adaptive time-scale (Th %g)", th)
	}
	if g.FlowTTL > 0 {
		fmt.Fprintf(b, ", flow TTL %g", g.FlowTTL)
	}
	if g.StaleAfter > 0 {
		fmt.Fprintf(b, ", degrade after %d stale ticks", g.StaleAfter)
	}
	b.WriteString("\n")
	if cl := cfg.Cluster; cl != nil {
		fmt.Fprintf(b, "- **Cluster**: %d instances (capacity is per instance), least-loaded placement", cl.Instances)
		if cl.DrainAt > 0 {
			fmt.Fprintf(b, "; drain instance %d at t=%g", cl.DrainInstance, cl.DrainAt)
		}
		b.WriteString("; graded on the worst instance's audit\n")
	}
	fmt.Fprintf(b, "- **Target substrate**: %s\n", cfg.Target)
	if len(cfg.Faults) > 0 {
		b.WriteString("- **Fault schedule**: ")
		for i, f := range cfg.Faults {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s over [%g, %g)", f.Mode, f.From, f.To)
		}
		b.WriteString("\n")
	}
	b.WriteString("- **Arms (varied)**:\n")
	for _, a := range cfg.Arms {
		fmt.Fprintf(b, "  - `%s`: policy %s", a.Name, a.Policy)
		if a.Peak > 0 {
			fmt.Fprintf(b, " (peak %g)", a.Peak)
		}
		if a.Eta > 0 {
			fmt.Fprintf(b, " (eta %g)", a.Eta)
		}
		if a.Degraded != "" {
			fmt.Fprintf(b, ", degraded policy %s", a.Degraded)
		}
		if a.Estimator != "" {
			fmt.Fprintf(b, ", estimator %s", a.Estimator)
		}
		if a.Memory != 0 {
			fmt.Fprintf(b, ", memory %g", a.Memory)
		}
		if a.Adaptive != nil {
			fmt.Fprintf(b, ", adaptive %t", *a.Adaptive)
		}
		if a.Plan != "" {
			spec, _ := cfg.resolve("", a) // validated by Run
			fmt.Fprintf(b, ", plan %s (p_ce %.4g", a.Plan, spec.target)
			if a.Plan == planNames.String(planRobust) {
				fmt.Fprintf(b, ", estimator %s, memory %.4g", spec.gateway.Estimator, spec.gateway.Memory)
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(b, "- **Controlled**: identical schedules, gateway configuration and PCG substreams across arms; seeds %s\n", seedList(cfg.Seeds))
	fmt.Fprintf(b, "- **References**: sqrt2-law p_f = %.4g at p_q = %g", r.Sqrt2Law, g.PQ)
	if r.Reference > 0 {
		fmt.Fprintf(b, "; graded against %.4g", r.Reference)
	}
	if iv := cfg.Check.Interval; iv != nil && iv.GradeAfter > 0 {
		fmt.Fprintf(b, "; graded from t=%g (transient excluded)", iv.GradeAfter)
	}
	b.WriteString("\n\n")
}

func writeFlowModel(b *strings.Builder, w Workload) {
	if w.Model != nil {
		fmt.Fprintf(b, "- **Flow model**: %s\n", modelLine(w.Model))
	} else {
		fmt.Fprintf(b, "- **Flow model**: RCBR(mu 1, SVR %g, Tc %g)\n", w.SVR, w.TC)
	}
}

func modelLine(m *ModelSpec) string {
	switch m.Kind {
	case "rcbr":
		return fmt.Sprintf("RCBR(mu %g, SVR %g, Tc %g)", m.Mu, m.SVR, m.TC)
	case "onoff":
		return fmt.Sprintf("on-off(peak %g, on %g, off %g)", m.Peak, m.OnTime, m.OffTime)
	case "constant":
		return fmt.Sprintf("constant(rate %g)", m.Rate)
	case "mixture":
		parts := make([]string, len(m.Mix))
		for i := range m.Mix {
			parts[i] = fmt.Sprintf("%g x %s", m.Mix[i].Weight, modelLine(&m.Mix[i].Model))
		}
		return "mixture(" + strings.Join(parts, ", ") + ")"
	}
	return m.Kind
}

func seedList(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, ", ")
}

func (r *Result) writeResults(b *strings.Builder) {
	switch r.Config.Check.Kind {
	case HypInterval:
		b.WriteString("| seed | arm | p_f | Wilson CI | n | qos verdict |\n")
		b.WriteString("|---|---|---|---|---|---|\n")
		for _, c := range r.Cells {
			fmt.Fprintf(b, "| %d | %s | %.4g | [%.4g, %.4g] | %d | %s |\n",
				c.Seed, c.Arm, c.Overflow.P, c.Overflow.Lo, c.Overflow.Hi, c.Overflow.N, c.QoS)
		}
	case HypDominance:
		d := r.Config.Check.Dominance
		fmt.Fprintf(b, "| seed | arm | %s | admitted | rejected | storm-admitted | degraded ticks | util |\n", d.Metric)
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, c := range r.Cells {
			fmt.Fprintf(b, "| %d | %s | %.6g | %d | %d | %d | %d | %.3f |\n",
				c.Seed, c.Arm, c.Metric(d.Metric), c.Stats.Admitted, c.Stats.Rejected,
				c.StormAdmitted, c.DegradedTicks, c.UtilMean)
		}
	case HypInvariant:
		b.WriteString("| seed | arm | admitted | rejected | departed | expired | active | p_f |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, c := range r.Cells {
			fmt.Fprintf(b, "| %d | %s | %d | %d | %d | %d | %d | %.4g |\n",
				c.Seed, c.Arm, c.Stats.Admitted, c.Stats.Rejected, c.Stats.Departed,
				c.Stats.Expired, c.Stats.Active, c.Overflow.P)
		}
	}
	b.WriteString("\n")
	r.writeAdaptive(b)
}

// writeAdaptive renders the time-scale controller table for cells that
// ran with adaptive measurement; scenarios without adaptive arms emit
// nothing, keeping their reports byte-identical.
func (r *Result) writeAdaptive(b *strings.Builder) {
	any := false
	for _, c := range r.Cells {
		if c.Adaptive != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	b.WriteString("### Adaptive time-scale controller\n\n")
	b.WriteString("| seed | arm | T_m | target | T^_c | regime | retunes | blocks |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, c := range r.Cells {
		a := c.Adaptive
		if a == nil {
			continue
		}
		fmt.Fprintf(b, "| %d | %s | %.4g | %.4g | %.4g | %s | %d | %d |\n",
			c.Seed, c.Arm, a.Tm, a.Target, a.TcHat, a.Regime, a.Retunes, a.Blocks)
	}
	b.WriteString("\n")
}

// JSONVerdict renders the machine-readable verdict document.
func (r *Result) JSONVerdict() ([]byte, error) {
	doc := struct {
		Name      string         `json:"name"`
		Title     string         `json:"title"`
		Verdict   Verdict        `json:"verdict"`
		Expect    Verdict        `json:"expect"`
		Matched   bool           `json:"matched"`
		Kind      HypothesisKind `json:"hypothesis"`
		Sqrt2Law  float64        `json:"sqrt2_law"`
		Reference float64        `json:"reference,omitempty"`
		Effect    string         `json:"effect,omitempty"`
		Notes     []string       `json:"notes"`
		Cells     []CellResult   `json:"cells"`
	}{
		Name:      r.Config.Name,
		Title:     r.Config.Title,
		Verdict:   r.Verdict,
		Expect:    r.Config.Expect,
		Matched:   r.Matched(),
		Kind:      r.Config.Check.Kind,
		Sqrt2Law:  r.Sqrt2Law,
		Reference: r.Reference,
		Effect:    r.Effect,
		Notes:     r.Notes,
		Cells:     r.Cells,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
