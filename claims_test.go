package mbac_test

// The paper's continuous-load claims, graded where every simulated claim is
// graded: by the scenario engine, from the configs under scenarios/. The
// mean-error claim is checked here through the public facade; the other
// closed-form claims (the 1/sqrt(n) margin, correlation masking) and the
// sensitivity formulas are internal/theory tests; the impulsive sqrt2 law
// and its eq. 15 remedy are the sqrt2-law-* scenarios of the scenario tier.

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	mbac "repro"
	"repro/internal/scenario"
)

// TestClaimScenarios runs the continuous-load claim scenarios and asserts
// that each grades its declared expectation:
//
//   - continuous-load-worse (Section 4): memoryless certainty equivalence
//     under continuous load is not held to the impulsive sqrt2 law;
//   - robust-recipe (Section 5.3): memory T_m = T~h and the eq. 37 target
//     meet p_q, as perfect knowledge does.
//
// The recipe's utilization half — within 2 points of perfect knowledge —
// is read from the robust-recipe cells here, since a dominance hypothesis's
// min_ratio is a floor and cannot state a band.
func TestClaimScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation claims")
	}
	for _, name := range []string{"continuous-load-worse", "robust-recipe"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg, err := scenario.Load(filepath.Join("scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Matched() {
				t.Errorf("verdict %s, expected %s", res.Verdict, cfg.Expect)
				for _, n := range res.Notes {
					t.Log(n)
				}
			}
			if name != "robust-recipe" {
				return
			}
			robust := map[uint64]float64{}
			for _, c := range res.Cells {
				if c.Arm == "robust" {
					robust[c.Seed] = c.UtilMean
				}
			}
			for _, c := range res.Cells {
				if c.Arm == "perfect-knowledge" && c.UtilMean-robust[c.Seed] > 0.02 {
					t.Errorf("seed %d: robustness cost too high: perfect knowledge %v vs robust %v",
						c.Seed, c.UtilMean, robust[c.Seed])
				}
			}
		})
	}
}

// Claim (Section 3.1): the two estimation errors are not equal — the
// sensitivity to the mean grows with sqrt(n) while the sensitivity to the
// standard deviation is size-free, so mean errors dominate at scale.
func TestClaimMeanErrorDominates(t *testing.T) {
	// |s_mu| grows by ~10 from n=100 to n=10000; |s_sigma| is unchanged.
	// (The theory package exposes these in closed form; here we verify
	// through the facade by finite differences of AdmissibleFlows.)
	perturb := func(c float64, dmu, dsigma float64) float64 {
		m := mbac.AdmissibleFlows(c, 1+dmu, 0.3+dsigma, 1e-3)
		// Achieved pf with true parameters when admitting m flows:
		return mbac.Q((c - m) / (0.3 * math.Sqrt(m)))
	}
	const h = 1e-6
	sMuSmall := (perturb(100, h, 0) - 1e-3) / h
	sMuBig := (perturb(10000, h, 0) - 1e-3) / h
	sSigSmall := (perturb(100, 0, h) - 1e-3) / h
	sSigBig := (perturb(10000, 0, h) - 1e-3) / h
	if r := sMuBig / sMuSmall; math.Abs(r-10) > 1 {
		t.Errorf("s_mu scaling %v, want ~10 (sqrt of n-ratio)", r)
	}
	if r := sSigBig / sSigSmall; math.Abs(r-1) > 0.05 {
		t.Errorf("s_sigma should be size-free, ratio %v", r)
	}
}
