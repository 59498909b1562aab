//go:build !race

package client

import (
	"context"
	"testing"

	"repro/internal/server"
)

// TestCallAllocations gates what a call allocates, which unlike its
// latency does not drift with the machine: the rendezvous is pooled and
// the frame is encoded into the connection's queue, so Admit and Depart
// against the in-process server (itself allocation-free in steady state)
// stay within one allocation per call. Not built under -race, where
// sync.Pool drops a share of what it is given on purpose.
func TestCallAllocations(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	round := func() {
		if d, err := c.Admit(ctx, 7, 1); err != nil || !d.Admitted {
			t.Fatalf("admit: %+v, %v", d, err)
		}
		if err := c.Depart(ctx, 7); err != nil {
			t.Fatalf("depart: %v", err)
		}
	}
	for i := 0; i < 100; i++ { // dial, fill the pool, warm the server's scratch
		round()
	}
	if got := testing.AllocsPerRun(500, round); got > 2 {
		t.Fatalf("%.2f allocations per Admit+Depart, want at most 2 (one per call)", got)
	}
}

// TestAdmitBatchAllocations: a 16-flow AdmitBatch allocates the
// []gateway.Decision it returns and nothing else — the reply's decisions
// decode into the pooled call's own buffer. The flows were admitted once
// beforehand, so every round decides 16 duplicates and the gateway's
// table does not grow under the measurement.
func TestAdmitBatchAllocations(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	ids, rates := make([]uint64, 16), make([]float64, 16)
	for i := range ids {
		ids[i], rates[i] = uint64(100+i), 1
	}
	round := func() {
		if ds, err := c.AdmitBatch(ctx, ids, rates); err != nil || len(ds) != len(ids) {
			t.Fatalf("admit batch: %d decisions, %v", len(ds), err)
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if got := testing.AllocsPerRun(500, round); got > 1 {
		t.Fatalf("%.2f allocations per 16-flow AdmitBatch, want at most 1 (the returned slice)", got)
	}
}
