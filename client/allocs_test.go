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
