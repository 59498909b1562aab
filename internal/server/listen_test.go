package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestListenValidatesShards(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", 0); err == nil {
		t.Fatal("Listen accepted 0 shards")
	}
}

// TestListenPinsResolvedPort: with addr :0 every listener in the set must
// land on the port the first bind chose, or the set is not one service.
func TestListenPinsResolvedPort(t *testing.T) {
	lns, err := Listen("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	if len(lns) != 3 {
		t.Fatalf("Listen returned %d listeners, want 3", len(lns))
	}
	addr := lns[0].Addr().String()
	for i, ln := range lns {
		if ln.Addr().String() != addr {
			t.Fatalf("shard %d bound %s, want %s", i, ln.Addr(), addr)
		}
	}
}

// TestShardedServeSpreadsConnections serves over a 3-shard listener set
// and checks the sharding is real and observable: every connection is
// served, the per-shard counters account for all of them, and the bytes
// they moved are attributed to the shard that served them.
func TestShardedServeSpreadsConnections(t *testing.T) {
	const shards, conns = 3, 12
	lns, err := Listen("127.0.0.1:0", shards)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Gateway: newTestGateway(t, 1e9)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lns...) }()
	shutdown := sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	defer shutdown()

	addr := lns[0].Addr().String()
	for i := 0; i < conns; i++ {
		nc, rd := dial(t, addr)
		if _, err := nc.Write(wire.AppendPing(nil, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		var f wire.Frame
		mustNext(t, rd, &f)
		if f.Op != wire.OpPong || f.ReqID != uint64(i+1) {
			t.Fatalf("conn %d: got %v req %d, want Pong %d", i, f.Op, f.ReqID, i+1)
		}
		nc.Close()
	}

	// A writer publishes its byte count after the write returns, which can
	// be after the client has read the pong: snapshot once the drain has
	// joined every connection goroutine.
	shutdown()
	snap := srv.Snapshot()
	if len(snap.Shards) != shards {
		t.Fatalf("snapshot has %d shards, want %d", len(snap.Shards), shards)
	}
	var total, bytesIn, bytesOut int64
	for i, sh := range snap.Shards {
		total += sh.Conns
		bytesIn += sh.BytesRead
		bytesOut += sh.BytesWritten
		if sh.Conns == 0 && (sh.BytesRead != 0 || sh.BytesWritten != 0) {
			t.Fatalf("shard %d moved bytes without serving a connection: %+v", i, sh)
		}
	}
	if total != conns {
		t.Fatalf("shard conns sum to %d, want %d", total, conns)
	}
	// Each ping is a 14-byte request and a 14-byte response.
	if bytesIn < conns*14 || bytesOut < conns*14 {
		t.Fatalf("shard byte counters too small: read %d written %d, want >= %d", bytesIn, bytesOut, conns*14)
	}
	if snap.ConnsAccepted != conns {
		t.Fatalf("accepted %d, want %d", snap.ConnsAccepted, conns)
	}
}

// TestAssembleShardsSharedFallback: with no rebind available (platforms
// without SO_REUSEPORT), the set is the first listener shared across all
// shards — same address, never an error.
func TestAssembleShardsSharedFallback(t *testing.T) {
	first, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	lns := assembleShards(first, 3, nil)
	if len(lns) != 3 {
		t.Fatalf("got %d listeners, want 3", len(lns))
	}
	for i, ln := range lns {
		if ln != first {
			t.Fatalf("shard %d is not the shared first listener", i)
		}
	}
}

// TestAssembleShardsDegradesOnRebindFailure: a rebind that fails mid-set
// (a kernel that takes SO_REUSEPORT but refuses the second bind) must
// degrade the whole set to the shared listener — closing the rebinds it
// already opened — rather than failing Listen or mixing private and
// shared accept queues.
func TestAssembleShardsDegradesOnRebindFailure(t *testing.T) {
	first, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	var opened []net.Listener
	calls := 0
	lns := assembleShards(first, 4, func(addr string) (net.Listener, error) {
		calls++
		if calls == 2 {
			return nil, errors.New("bind refused")
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			opened = append(opened, ln)
		}
		return ln, err
	})
	if len(lns) != 4 {
		t.Fatalf("got %d listeners, want 4", len(lns))
	}
	for i, ln := range lns {
		if ln != first {
			t.Fatalf("shard %d is not the shared first listener after degrade", i)
		}
	}
	for i, ln := range opened {
		if err := ln.Close(); err == nil {
			t.Errorf("partially-opened rebind %d was left open", i)
		}
	}
	if first.Close() != nil {
		t.Error("degrade closed the first listener")
	}
}

// TestAssembleShardsAllRebindsSucceed: the happy path yields one
// independent listener per shard, every one on the first bind's address.
func TestAssembleShardsAllRebindsSucceed(t *testing.T) {
	first, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	seen := map[net.Listener]bool{}
	lns := assembleShards(first, 3, func(addr string) (net.Listener, error) {
		// Stand-in for a SO_REUSEPORT rebind: any distinct listener works
		// for the assembly contract under test.
		return net.Listen("tcp", "127.0.0.1:0")
	})
	if len(lns) != 3 {
		t.Fatalf("got %d listeners, want 3", len(lns))
	}
	for i, ln := range lns {
		if seen[ln] {
			t.Fatalf("shard %d reuses another shard's listener", i)
		}
		seen[ln] = true
		if i > 0 {
			defer ln.Close()
		}
	}
}
