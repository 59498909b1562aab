package mbac_test

// The paper's continuous-load claims, graded where every simulated claim is
// graded: by the scenario engine, from the configs under scenarios/. The
// mean-error claim is checked here through the public facade; the other
// closed-form claims (the 1/sqrt(n) margin, correlation masking) and the
// sensitivity formulas are internal/theory tests; the impulsive sqrt2 law
// and its eq. 15 remedy are the sqrt2-law-* scenarios of the scenario tier.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	mbac "repro"
)

// TestClaimScenarios holds the half of the Section 5.3 robust recipe that a
// dominance hypothesis cannot state, since its min_ratio is a floor and
// not a band: robust utilization within 2 points of perfect knowledge.
// The scenario engine grades the rest of every simulated claim, and
// internal/scenario's TestGoldenScenarioReports reproduces each report in
// results/scenario/ byte for byte, so this reads the robust-recipe cells
// from that report rather than running the scenario a second time.
func TestClaimScenarios(t *testing.T) {
	t.Run("robust-recipe", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join("results", "scenario", "robust-recipe.json"))
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Cells []struct {
				Seed     uint64  `json:"seed"`
				Arm      string  `json:"arm"`
				UtilMean float64 `json:"util_mean"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatal(err)
		}
		robust := map[uint64]float64{}
		for _, c := range report.Cells {
			if c.Arm == "robust" {
				robust[c.Seed] = c.UtilMean
			}
		}
		checked := 0
		for _, c := range report.Cells {
			if r, ok := robust[c.Seed]; ok && c.Arm == "perfect-knowledge" {
				checked++
				if c.UtilMean-r > 0.02 {
					t.Errorf("seed %d: robustness cost too high: perfect knowledge %v vs robust %v", c.Seed, c.UtilMean, r)
				}
			}
		}
		if checked == 0 {
			t.Fatal("robust-recipe report has no robust/perfect-knowledge cell pair")
		}
	})
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
