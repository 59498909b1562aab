//go:build !race

package cluster

import (
	"context"
	"testing"
)

// TestReplayTargetAllocationFree: ReplayTarget.Depart and UpdateRate
// allocate nothing, on a flow the fleet holds or on one it does not. A
// replay departs and updates every flow it was refused, and the not-active
// outcome once came through the routed op's error, which boxed the flow ID
// (IDs past 255 allocate when boxed): one allocation per such event.
func TestReplayTargetAllocationFree(t *testing.T) {
	const (
		runs    = 100
		unknown = 1 << 40
	)
	c := newTestCluster(t, 2, 1e9, Config{})
	tgt := &ReplayTarget{C: c}
	ctx := context.Background()
	ids := make([]uint64, runs+1)
	rates := make([]float64, runs+1)
	for i := range ids {
		ids[i], rates[i] = uint64(1000+i), 1
	}
	if ds, err := tgt.AdmitBatch(ctx, ids, rates); err != nil || len(ds) != len(ids) || !ds[0].Admitted {
		t.Fatalf("admitting the departing flows: %v", err)
	}
	next := 0
	for _, tc := range []struct {
		name string
		op   func() bool
		want bool
	}{
		{"Depart unknown", func() bool { ok, _ := tgt.Depart(ctx, unknown); return ok }, false},
		{"UpdateRate unknown", func() bool { ok, _ := tgt.UpdateRate(ctx, unknown, 2); return ok }, false},
		{"UpdateRate active", func() bool { ok, _ := tgt.UpdateRate(ctx, ids[0], 2); return ok }, true},
		{"Depart active", func() bool { ok, _ := tgt.Depart(ctx, ids[next]); next++; return ok }, true},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			if got := tc.op(); got != tc.want {
				t.Fatalf("%s answered %t", tc.name, got)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %g allocations per call, want 0", tc.name, allocs)
		}
	}
}
