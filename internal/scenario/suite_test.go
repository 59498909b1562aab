//go:build scenario

package scenario

import "testing"

// TestScenarioSuite is the `make test-scenario` tier: tier-1's report check
// over every built-in scenario, the impulsive ensembles included (the
// sqrt2-law points, the eq. 15 arm and their perfect-knowledge control —
// seconds each, which is why they live behind the "scenario" build tag).
func TestScenarioSuite(t *testing.T) {
	checkReports(t, func(*Config) bool { return true })
}
