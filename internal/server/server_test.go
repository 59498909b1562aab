package server

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/wire"
)

// newTestGateway builds a deterministically ticking gateway with room for
// roughly cap unit-rate flows.
func newTestGateway(tb testing.TB, cap float64) *gateway.Gateway {
	tb.Helper()
	ctrl, err := core.NewCertaintyEquivalent(1e-6, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var lat atomic.Int64
	g, err := gateway.New(gateway.Config{
		Capacity:     cap,
		Controller:   ctrl,
		Estimator:    estimator.NewMemoryless(),
		Shards:       4,
		EstimateRing: 1,
		LatencyClock: func() int64 { return lat.Add(1) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// startServer serves cfg on a loopback listener, failing the test on
// unexpected Serve errors and shutting down at cleanup.
func startServer(tb testing.TB, cfg Config) (*Server, string) {
	tb.Helper()
	if cfg.Gateway == nil {
		cfg.Gateway = newTestGateway(tb, 1e9)
	}
	srv, err := New(cfg)
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
			if err := srv.Shutdown(ctx); err != nil {
				tb.Errorf("shutdown: %v", err)
			}
		}
		if err := <-done; err != nil {
			tb.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// dial opens a raw protocol connection to addr.
func dial(tb testing.TB, addr string) (net.Conn, *wire.Reader) {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, wire.NewReader(nc)
}

func mustNext(tb testing.TB, r *wire.Reader, f *wire.Frame) {
	tb.Helper()
	if err := r.Next(f); err != nil {
		tb.Fatalf("reading response frame: %v", err)
	}
}

func TestRoundTripEveryRequestOp(t *testing.T) {
	_, addr := startServer(t, Config{})
	nc, rd := dial(t, addr)
	var f wire.Frame

	// Admit a flow, then exercise the per-flow ops against it.
	if _, err := nc.Write(wire.AppendAdmit(nil, 1, 7, 1.5)); err != nil {
		t.Fatal(err)
	}
	mustNext(t, rd, &f)
	if f.Op != wire.OpDecision || f.ReqID != 1 {
		t.Fatalf("got %v req %d, want Decision req 1", f.Op, f.ReqID)
	}
	if f.Decision.Reason != uint8(gateway.ReasonAdmitted) {
		t.Fatalf("admit refused: reason %d", f.Decision.Reason)
	}
	steps := []struct {
		frame []byte
		op    wire.Op
		want  wire.Status
	}{
		{wire.AppendUpdateRate(nil, 2, 7, 2.5), wire.OpAck, wire.StatusOK},
		{wire.AppendTouch(nil, 3, 7), wire.OpAck, wire.StatusOK},
		{wire.AppendPing(nil, 4), wire.OpPong, 0},
		{wire.AppendDepart(nil, 5, 7), wire.OpAck, wire.StatusOK},
		{wire.AppendDepart(nil, 6, 7), wire.OpAck, wire.StatusNotActive},
		{wire.AppendTouch(nil, 7, 99), wire.OpAck, wire.StatusNotActive},
		{wire.AppendUpdateRate(nil, 8, 99, -1), wire.OpAck, wire.StatusInvalidRate},
	}
	for i, s := range steps {
		if _, err := nc.Write(s.frame); err != nil {
			t.Fatal(err)
		}
		mustNext(t, rd, &f)
		if f.Op != s.op || f.ReqID != uint64(i+2) {
			t.Fatalf("step %d: got %v req %d, want %v req %d", i, f.Op, f.ReqID, s.op, i+2)
		}
		if s.op == wire.OpAck && f.Status != s.want {
			t.Fatalf("step %d: got status %v, want %v", i, f.Status, s.want)
		}
	}
}

func TestAdmitBatchFrame(t *testing.T) {
	srv, addr := startServer(t, Config{})
	nc, rd := dial(t, addr)
	enc, err := wire.AppendAdmitBatch(nil, 9, []uint64{1, 2, 1}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	mustNext(t, rd, &f)
	if f.Op != wire.OpDecisionBatch || f.ReqID != 9 || len(f.Decisions) != 3 {
		t.Fatalf("got %v req %d with %d decisions", f.Op, f.ReqID, len(f.Decisions))
	}
	if f.Decisions[0].Reason != uint8(gateway.ReasonAdmitted) ||
		f.Decisions[1].Reason != uint8(gateway.ReasonAdmitted) ||
		f.Decisions[2].Reason != uint8(gateway.ReasonDuplicate) {
		t.Fatalf("unexpected reasons %+v", f.Decisions)
	}
	snap := srv.Snapshot()
	if snap.Decisions != 3 || snap.Batches != 1 {
		t.Fatalf("snapshot counted %d decisions in %d batches, want 3 in 1", snap.Decisions, snap.Batches)
	}
}

// TestMicroBatchingCoalescesPipelinedAdmits is the perf-centerpiece
// contract: pipelined single Admit frames must coalesce into fewer
// AdmitBatch calls (mean batch > 1) while responses stay in request order.
func TestMicroBatchingCoalescesPipelinedAdmits(t *testing.T) {
	srv, addr := startServer(t, Config{})
	nc, rd := dial(t, addr)
	const n = 256
	var buf []byte
	for i := 0; i < n; i++ {
		buf = wire.AppendAdmit(buf, uint64(i+1), uint64(i), 1)
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	for i := 0; i < n; i++ {
		mustNext(t, rd, &f)
		if f.Op != wire.OpDecision || f.ReqID != uint64(i+1) {
			t.Fatalf("response %d: got %v req %d, want Decision req %d", i, f.Op, f.ReqID, i+1)
		}
	}
	snap := srv.Snapshot()
	if snap.Decisions != n {
		t.Fatalf("served %d decisions, want %d", snap.Decisions, n)
	}
	if snap.MeanBatch() <= 1 {
		t.Fatalf("micro-batching never engaged: %d decisions in %d batches (mean %.2f)",
			snap.Decisions, snap.Batches, snap.MeanBatch())
	}
}

func TestMaxConnsRefusal(t *testing.T) {
	srv, addr := startServer(t, Config{MaxConns: 1})
	nc1, rd1 := dial(t, addr)
	// A round trip guarantees conn1 is registered before we dial conn2.
	if _, err := nc1.Write(wire.AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	mustNext(t, rd1, &f)

	_, rd2 := dial(t, addr)
	mustNext(t, rd2, &f)
	if f.Op != wire.OpRefusal || f.Refusal != wire.RefuseOverloaded {
		t.Fatalf("got %v/%v, want Refusal/overloaded", f.Op, f.Refusal)
	}
	if err := rd2.Next(&f); err == nil {
		t.Fatal("refused connection stayed open")
	}
	if got := srv.Snapshot().ConnsRefused; got != 1 {
		t.Fatalf("refused counter = %d, want 1", got)
	}
}

func TestFrameRateCapRefusesFloods(t *testing.T) {
	srv, addr := startServer(t, Config{FrameRate: 1})
	nc, rd := dial(t, addr)
	// Burst is one frame; the second immediate frame must trip the cap.
	buf := wire.AppendPing(wire.AppendPing(nil, 1), 2)
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	mustNext(t, rd, &f)
	if f.Op != wire.OpPong {
		t.Fatalf("first frame got %v, want Pong", f.Op)
	}
	mustNext(t, rd, &f)
	if f.Op != wire.OpRefusal || f.Refusal != wire.RefuseRateLimited {
		t.Fatalf("got %v/%v, want Refusal/rate-limited", f.Op, f.Refusal)
	}
	if got := srv.Snapshot().ConnsRateLimited; got != 1 {
		t.Fatalf("rate-limited counter = %d, want 1", got)
	}
}

// TestSlowReaderHeldThenCut pins what bounds a peer that keeps asking and
// never reads: the connection's goroutine blocks in its reply write, so it
// reads nothing ahead of what it can answer and holds one arena of
// replies; when the write outlasts WriteTimeout the connection is cut and
// counted as shed, with no Refusal attempted on the failed socket. What
// was written before the stall arrives whole and in request order.
func TestSlowReaderHeldThenCut(t *testing.T) {
	srv, addr := startServer(t, Config{WriteTimeout: 50 * time.Millisecond})
	nc, rd := dial(t, addr)
	// A round trip guarantees the connection is registered.
	if _, err := nc.Write(wire.AppendPing(nil, 0)); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	mustNext(t, rd, &f)
	srv.mu.Lock()
	var c *conn
	for c = range srv.conns {
	}
	srv.mu.Unlock()

	// Ask without reading until the server stops taking requests: both
	// directions' socket buffers are full, or the cut has already happened.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		var req []byte
		for id := uint64(1); ; {
			req = req[:0]
			for i := 0; i < 512; i++ {
				req = wire.AppendAdmit(req, id, id, 1)
				id++
			}
			if _, err := nc.Write(req); err != nil {
				return
			}
		}
	}()

	// Removal from the registry is serve's last step; seeing it under the
	// lock orders this goroutine after everything the connection did.
	live := true
	for deadline := time.Now().Add(5 * time.Second); live; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a peer that never reads still holds its connection after 100 write timeouts")
		}
		srv.mu.Lock()
		_, live = srv.conns[c]
		srv.mu.Unlock()
	}
	if snap := srv.Snapshot(); snap.ConnsShed != 1 || snap.ProtocolErrors != 0 {
		t.Fatalf("conns_shed = %d, protocol_errors = %d, want 1 and 0", snap.ConnsShed, snap.ProtocolErrors)
	}
	// The arena is the connection's only reply storage; it crosses the
	// flush threshold by at most one batch, and append may round that up.
	if got := cap(c.out); got > 2*coalesceBytes {
		t.Fatalf("the connection grew its reply arena to %d bytes, want at most %d", got, 2*coalesceBytes)
	}
	<-wrote

	got := uint64(0)
	for {
		if err := rd.Next(&f); err != nil {
			// The timed-out write was cut short and the socket closed over
			// unread requests: a truncation or a reset, never a bad frame.
			var ne net.Error
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.As(err, &ne) {
				t.Fatalf("the cut produced a decode error: %v", err)
			}
			break
		}
		got++
		if f.Op != wire.OpDecision || f.ReqID != got {
			t.Fatalf("reply %d: got %v req %d, want the in-order Decision", got, f.Op, f.ReqID)
		}
	}
	if got == 0 {
		t.Fatal("no reply written before the stall was delivered")
	}
}

// TestProtocolErrorRefuses: a malformed frame and a well-formed frame only
// a server may send end the connection the same way — one Refusal
// (protocol), one protocol error counted, nothing else.
func TestProtocolErrorRefuses(t *testing.T) {
	for name, frame := range map[string][]byte{
		"malformed":   {0, 0, 0, 2, 0xff, 0xff},
		"response op": wire.AppendPong(nil, 1),
	} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startServer(t, Config{})
			nc, rd := dial(t, addr)
			if _, err := nc.Write(frame); err != nil {
				t.Fatal(err)
			}
			var f wire.Frame
			mustNext(t, rd, &f)
			if f.Op != wire.OpRefusal || f.Refusal != wire.RefuseProtocol {
				t.Fatalf("got %v/%v, want Refusal/protocol", f.Op, f.Refusal)
			}
			if snap := srv.Snapshot(); snap.ProtocolErrors != 1 || snap.ConnsShed != 0 {
				t.Fatalf("protocol_errors = %d, conns_shed = %d, want 1 and 0", snap.ProtocolErrors, snap.ConnsShed)
			}
		})
	}
}

// TestGracefulDrainFlushesInFlightDecisions pins the drain contract: admits
// already written when Shutdown begins still get their decisions before the
// connection closes, and nothing is departed on the clients' behalf.
func TestGracefulDrainFlushesInFlightDecisions(t *testing.T) {
	g := newTestGateway(t, 1e9)
	srv, addr := startServer(t, Config{Gateway: g, DrainGrace: time.Second})
	nc, rd := dial(t, addr)
	// Prime the connection so the admits below are genuinely in flight on
	// an established, registered connection.
	if _, err := nc.Write(wire.AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	mustNext(t, rd, &f)

	const n = 64
	var buf []byte
	for i := 0; i < n; i++ {
		buf = wire.AppendAdmit(buf, uint64(i+2), uint64(i), 1)
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		mustNext(t, rd, &f)
		if f.Op != wire.OpDecision || f.ReqID != uint64(i+2) {
			t.Fatalf("drain dropped decision %d: got %v req %d", i, f.Op, f.ReqID)
		}
	}
	if err := rd.Next(&f); !errors.Is(err, io.EOF) {
		t.Fatalf("got %v after drain, want EOF", err)
	}
	// Drain departs nothing: the admitted flows are still active and will
	// only age out through their leases.
	if active := g.Snapshot().Active; active != n {
		t.Fatalf("drain departed flows: %d active, want %d", active, n)
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

func TestSnapshotPrometheusRendering(t *testing.T) {
	srv, addr := startServer(t, Config{})
	nc, rd := dial(t, addr)
	if _, err := nc.Write(wire.AppendAdmit(nil, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	mustNext(t, rd, &f)
	var sb strings.Builder
	srv.Snapshot().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"mbac_server_conns_active 1",
		"mbac_server_conns_accepted_total 1",
		"mbac_server_decisions_total 1",
		"mbac_server_batch_size_bucket",
		"mbac_server_draining 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil gateway accepted")
	}
	if _, err := New(Config{Gateway: newTestGateway(t, 1), MaxConns: -1}); err == nil {
		t.Error("negative limit accepted")
	}
}
