package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServer brings up a real gateway+server on loopback and returns the
// address plus the server for snapshot assertions.
func startServer(tb testing.TB, scfg server.Config) (*server.Server, string) {
	tb.Helper()
	if scfg.Gateway == nil {
		ctrl, err := core.NewCertaintyEquivalent(1e-6, 1, 1)
		if err != nil {
			tb.Fatal(err)
		}
		var lat atomic.Int64
		scfg.Gateway, err = gateway.New(gateway.Config{
			Capacity:     1e9,
			Controller:   ctrl,
			Estimator:    estimator.NewMemoryless(),
			Shards:       4,
			EstimateRing: 1,
			LatencyClock: func() int64 { return lat.Add(1) },
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	srv, err := server.New(scfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if !srv.Draining() {
			srv.Shutdown(ctx)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

func TestClientLifecycleOps(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	d, err := c.Admit(ctx, 1, 2.5)
	if err != nil || !d.Admitted {
		t.Fatalf("admit: %+v, %v", d, err)
	}
	if err := c.UpdateRate(ctx, 1, 3.5); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := c.Touch(ctx, 1); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if err := c.Depart(ctx, 1); err != nil {
		t.Fatalf("depart: %v", err)
	}
	if err := c.Depart(ctx, 1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double depart: got %v, want ErrNotActive", err)
	}
	if err := c.UpdateRate(ctx, 1, -2); !errors.Is(err, ErrInvalidRate) {
		t.Fatalf("negative rate: got %v, want ErrInvalidRate", err)
	}
	d, err = c.Admit(ctx, 2, -1)
	if err != nil {
		t.Fatalf("invalid-rate admit transport error: %v", err)
	}
	if d.Admitted || d.Reason != gateway.ReasonInvalidRate {
		t.Fatalf("invalid-rate admit: %+v", d)
	}
}

func TestClientAdmitBatch(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds, err := c.AdmitBatch(context.Background(), []uint64{10, 11, 10}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || !ds[0].Admitted || !ds[1].Admitted || ds[2].Reason != gateway.ReasonDuplicate {
		t.Fatalf("batch decisions: %+v", ds)
	}
	if _, err := c.AdmitBatch(context.Background(), []uint64{1}, nil); err == nil {
		t.Fatal("mismatched batch accepted")
	}
}

// TestConcurrentPipelining hammers two pooled connections from many
// goroutines against the real server: every reply must land on its own
// request (correlation) and the server must have decided each admit once.
// That concurrent callers share writes is TestQueuedCallersShareOneWrite's
// claim, where the interleaving is pinned.
func TestConcurrentPipelining(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers, perWorker = 16, 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				flow := uint64(w*perWorker + i)
				d, err := c.Admit(ctx, flow, 1)
				if err != nil {
					errs <- err
					return
				}
				if !d.Admitted {
					errs <- errors.New("unexpected refusal")
					return
				}
				if err := c.Depart(ctx, flow); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if snap.Decisions != workers*perWorker {
		t.Fatalf("server served %d decisions, want %d", snap.Decisions, workers*perWorker)
	}
}

// TestBurstHandOffStrandsNothing: sixteen callers on one connection, so
// the reader claims the write side for nearly every burst of replies and
// hands it to the writer. Every call must succeed: a frame queued behind
// a claim nobody flushes would surface as context.DeadlineExceeded.
func TestBurstHandOffStrandsNothing(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, perCaller = 16, 2000
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			ctx := context.Background()
			ids, rates := []uint64{0, 0}, []float64{1, 1}
			for i := uint64(0); i < perCaller; i++ {
				flow := w<<32 | i/6
				var err error
				switch i % 6 {
				case 0:
					_, err = c.Admit(ctx, flow, 1)
				case 1:
					err = c.UpdateRate(ctx, flow, 2)
				case 2:
					err = c.Touch(ctx, flow)
				case 3:
					err = c.Depart(ctx, flow)
				case 4:
					err = c.Ping(ctx)
				case 5:
					ids[0], ids[1] = flow, flow|1<<31
					_, err = c.AdmitBatch(ctx, ids, rates)
					for _, id := range ids {
						if err == nil {
							err = c.Depart(ctx, id)
						}
					}
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d, call %d: %w", w, i, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// silentServer accepts connections and never answers on them.
func silentServer(t *testing.T) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
		}
	}()
	return ln.Addr().String()
}

// TestRequestTimeout: against a silent server the request fails with a
// deadline error once the connection's watchdog finds it older than
// RequestTimeout — never sooner, and within 1.25× RequestTimeout plus
// scheduling slack — also under a context whose own deadline is an hour
// away, which must not switch RequestTimeout off.
func TestRequestTimeout(t *testing.T) {
	const (
		rt    = 200 * time.Millisecond
		slack = 200 * time.Millisecond
	)
	c, err := New(Config{Addr: silentServer(t), RequestTimeout: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	long, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"no context deadline", context.Background()}, {"context deadline in an hour", long}} {
		start := time.Now()
		if err := c.Ping(tc.ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: got %v, want context.DeadlineExceeded", tc.name, err)
		}
		if d := time.Since(start); d < rt || d > rt+rt/4+slack {
			t.Fatalf("%s: returned after %v, want [%v, 1.25×%v + %v]", tc.name, d, rt, rt, slack)
		}
	}
}

// TestTimedOutCallIsReused: the watchdog completes a timed-out call
// through its channel, so the call leaves the pending map at once and its
// rendezvous goes back to the pool; the reply, arriving late, is dropped,
// and the next call on the connection gets its own reply.
func TestTimedOutCallIsReused(t *testing.T) {
	withheld := make(chan uint64, 1)
	c, n := newStubClient(t, Config{RequestTimeout: 100 * time.Millisecond}, func(_ int, f *wire.Frame) []byte {
		if f.Flow == 1 {
			withheld <- f.ReqID
			return nil
		}
		var out []byte
		select {
		case id := <-withheld:
			out = wire.AppendDecision(out, id, wire.Decision{Active: -1})
		default:
		}
		return wire.AppendDecision(out, f.ReqID, wire.Decision{Active: int64(f.Flow)})
	})
	n.setOpen()
	pc := func() *poolConn { return c.conns[0] }
	for round := 0; round < 3; round++ {
		if _, err := c.Admit(context.Background(), 1, 1); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d, silent reply: got %v, want context.DeadlineExceeded", round, err)
		}
		if got := pc().pendingCalls(); got != 0 {
			t.Fatalf("round %d: %d calls pending after the timeout", round, got)
		}
		d, err := c.Admit(context.Background(), 2, 1)
		if err != nil || d.Active != 2 {
			t.Fatalf("round %d, the call after the timeout: %+v, %v", round, d, err)
		}
		if got := pc().pendingCalls(); got != 0 {
			t.Fatalf("round %d: %d calls pending", round, got)
		}
	}
	if n.dials() != 1 {
		t.Fatalf("%d dials, want 1: a timeout must not retire the connection", n.dials())
	}
}

func TestContextCancellation(t *testing.T) {
	c, err := New(Config{Addr: silentServer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if err := c.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRefusalFailsPendingAndRedials drives the client into a rate-limit
// refusal, then checks the pool heals by redialing.
func TestRefusalFailsPendingAndRedials(t *testing.T) {
	_, addr := startServer(t, server.Config{FrameRate: 1})
	c, err := New(Config{Addr: addr, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil { // burns the single token
		t.Fatal(err)
	}
	var refused *refusedError
	err = c.Ping(ctx) // immediately over the cap
	if !errors.As(err, &refused) || refused.Refusal != wire.RefuseRateLimited {
		t.Fatalf("got %v, want refusedError(rate-limited)", err)
	}
	// The bucket refills within a second; the pool must redial on its own.
	time.Sleep(1100 * time.Millisecond)
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("pool did not heal after refusal: %v", err)
	}
}

func TestClosedClient(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, errClosed) {
		t.Fatalf("got %v, want errClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing Addr accepted")
	}
	if _, err := New(Config{Addr: "x", Conns: -1}); err == nil {
		t.Error("negative Conns accepted")
	}
}

// TestCloseRaceAgainstPipelinedAdmits hammers Close against concurrent
// pipelined admissions: every in-flight call must return promptly, and
// every call that loses to Close must fail with the typed errClosed —
// never hang on the writer path, never surface a raw socket error. Run
// with -race: the whole point is the retire-vs-write interleaving.
func TestCloseRaceAgainstPipelinedAdmits(t *testing.T) {
	ctx := context.Background()
	var id atomic.Uint64
	for round := 0; round < 8; round++ {
		_, addr := startServer(t, server.Config{})
		c, err := New(Config{Addr: addr, Conns: 3})
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				ids := make([]uint64, 4)
				rates := make([]float64, 4)
				for i := 0; ; i++ {
					var err error
					if (i+w)%2 == 0 {
						for j := range ids {
							ids[j] = id.Add(1)
							rates[j] = 1
						}
						_, err = c.AdmitBatch(ctx, ids, rates)
					} else {
						_, err = c.Admit(ctx, id.Add(1), 1)
					}
					if err != nil {
						if !errors.Is(err, errClosed) {
							t.Errorf("round %d: call failed with %v, want errClosed", round, err)
						}
						return
					}
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		closed := time.Now()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(closed); d > 2*time.Second {
			t.Fatalf("round %d: Close blocked for %v", round, d)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: workers still blocked after Close", round)
		}
	}
}

// BenchmarkClientParallel is the shape the send path is built for: 8
// blocking callers sharing one connection, each admitting and departing
// its own flow against the in-process server. Not gated — its ns/op moves
// with the VM — but `-benchmem -cpuprofile` on it is where to start
// looking at the client.
func BenchmarkClientParallel(b *testing.B) {
	_, addr := startServer(b, server.Config{})
	c, err := New(Config{Addr: addr})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		b.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(flow uint64) {
			defer wg.Done()
			for i := int(flow); i < b.N; i += callers {
				if _, err := c.Admit(ctx, flow, 1); err != nil {
					b.Error(err)
					return
				}
				if err := c.Depart(ctx, flow); err != nil {
					b.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}
