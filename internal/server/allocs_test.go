//go:build !race

package server

import "testing"

// TestServedPathAllocationFree is the serving layer's allocation gate as a
// plain test: process-wide — reader, gateway, writer and this client loop —
// a pipelined loopback round allocates nothing, so a decision does not
// either. Not built under -race, whose instrumentation allocates on the
// goroutine hand-offs.
func TestServedPathAllocationFree(t *testing.T) {
	_, round := pipelinedRound(t)
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("%g allocs per round of %d decisions, want 0", avg, servedRound)
	}
}
