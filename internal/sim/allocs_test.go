//go:build !race

package sim

import "testing"

// The allocation budgets of the two kernels every ensemble and scenario
// spends: counts, unlike ns/op, do not drift with the machine. Not built
// under -race, whose instrumentation allocates.

// TestImpulsiveReplicationAllocBudget holds the kernel's allocation count
// (AllocsPerRun pins GOMAXPROCS to 1, so the count does not move with the
// pool's worker count): what a run allocates is its result and the pool's
// one run object, never anything per replication or per flow.
func TestImpulsiveReplicationAllocBudget(t *testing.T) {
	const budget = 8
	run, seed := impulsiveReplication(t), uint64(0)
	avg := testing.AllocsPerRun(50, func() { seed++; run(seed) })
	if avg > budget {
		t.Errorf("%g allocs per 10-replication run, budget %d", avg, budget)
	}
}

// TestEngineChurnAllocBudget is BenchmarkEngineChurn's allocs/op gate as a
// plain test: ~12 000 flow admissions per run, a fixed number of
// allocations (engine set-up; the arena's columns, flow queue and orphan
// heap are pooled, so nothing grows per run) whatever the turnover.
func TestEngineChurnAllocBudget(t *testing.T) {
	const budget = 100
	seed := uint64(0)
	avg := testing.AllocsPerRun(20, func() { seed++; engineChurn(t, seed) })
	if avg > budget {
		t.Errorf("%g allocs per churn run, budget %d", avg, budget)
	}
}
