package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// stubConn is the client half of a net.Pipe whose Write the test steps:
// every Write is recorded, announces itself on entered, and — unless the
// conn was made open — waits for one value on gate: nil passes the bytes on
// to the peer, an error is returned as the write's failure. Close unblocks
// a held Write, as closing a real socket does. far is the peer's half, for
// a test that writes replies itself.
type stubConn struct {
	net.Conn
	far     net.Conn
	open    bool
	entered chan struct{}
	gate    chan error
	closed  chan struct{}
	once    sync.Once

	mu     sync.Mutex
	writes [][]byte
}

func (c *stubConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	c.entered <- struct{}{}
	if !c.open {
		select {
		case err := <-c.gate:
			if err != nil {
				return 0, err
			}
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(b)
}

func (c *stubConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// written returns a copy of the Writes seen so far.
func (c *stubConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// stubNet hands a Client stub connections instead of TCP ones. The far
// half of each is served by reply: the bytes it returns for a request
// frame are written back (nil: stay silent).
type stubNet struct {
	t     *testing.T
	reply func(conn int, f *wire.Frame) []byte

	mu    sync.Mutex
	open  bool // connections dialed from now on do not gate their writes
	conns []*stubConn
}

func (n *stubNet) setOpen() {
	n.mu.Lock()
	n.open = true
	n.mu.Unlock()
}

// echo answers an Admit with a decision whose Active is the flow id, so a
// caller can tell its own reply from anyone else's, and acks the rest.
func echo(_ int, f *wire.Frame) []byte {
	switch f.Op {
	case wire.OpAdmit:
		return wire.AppendDecision(nil, f.ReqID, wire.Decision{Admissible: 1e9, Active: int64(f.Flow)})
	case wire.OpPing:
		return wire.AppendPong(nil, f.ReqID)
	default:
		return wire.AppendAck(nil, f.ReqID, wire.StatusOK)
	}
}

func (n *stubNet) dial(context.Context) (net.Conn, error) {
	near, far := net.Pipe()
	n.mu.Lock()
	sc := &stubConn{
		Conn:    near,
		far:     far,
		open:    n.open,
		entered: make(chan struct{}, 1024), // never blocks a Write: far more than any test issues
		gate:    make(chan error),
		closed:  make(chan struct{}),
	}
	id := len(n.conns)
	n.conns = append(n.conns, sc)
	n.mu.Unlock()
	go func() {
		defer far.Close()
		rd := wire.NewReader(far)
		var f wire.Frame
		for rd.Next(&f) == nil {
			if out := n.reply(id, &f); out != nil {
				if _, err := far.Write(out); err != nil {
					return
				}
			}
		}
	}()
	n.t.Cleanup(func() { sc.Close() })
	return sc, nil
}

func (n *stubNet) conn(i int) *stubConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i >= len(n.conns) {
		n.t.Fatalf("connection %d was never dialed (%d were)", i, len(n.conns))
	}
	return n.conns[i]
}

func (n *stubNet) dials() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

func newStubClient(t *testing.T, cfg Config, reply func(int, *wire.Frame) []byte) (*Client, *stubNet) {
	t.Helper()
	cfg.Addr = "stub"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := &stubNet{t: t, reply: reply}
	c.dial = n.dial
	t.Cleanup(func() { c.Close() })
	return c, n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func recv(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// queued is how many bytes wait in the connection's queue.
func (p *poolConn) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

func (p *poolConn) pendingCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

type admitResult struct {
	flow   uint64
	active int64
	err    error
}

// heldFlush puts the client's only connection in the state every test
// here starts from: the first caller's flush is inside Write and stays
// there, and k more callers have queued behind it, in flow order
// first+1 … first+k. The results of all k+1 Admits arrive on the returned
// channel.
func heldFlush(t *testing.T, c *Client, n *stubNet, first uint64, k int) (*stubConn, <-chan admitResult) {
	t.Helper()
	out := make(chan admitResult, k+1)
	admit := func(flow uint64) {
		d, err := c.Admit(context.Background(), flow, 1)
		out <- admitResult{flow, d.Active, err}
	}
	go admit(first)
	waitFor(t, "the dial", func() bool { return n.dials() == 1 })
	sc := n.conn(0)
	recv(t, "the first write", sc.entered)
	frame := len(wire.AppendAdmit(nil, 0, 0, 0))
	pc := c.conns[0]
	for i := 1; i <= k; i++ {
		go admit(first + uint64(i))
		waitFor(t, "a caller to queue", func() bool { return pc.queued() == i*frame })
	}
	return sc, out
}

// decodeAdmits splits one Write's bytes into the flows of the Admit frames
// it carried, failing on anything else.
func decodeAdmits(t *testing.T, b []byte) []uint64 {
	t.Helper()
	rd := wire.NewReader(bytes.NewReader(b))
	var f wire.Frame
	var flows []uint64
	for rd.Next(&f) == nil {
		if f.Op != wire.OpAdmit {
			t.Fatalf("write carried a %s frame", f.Op)
		}
		flows = append(flows, f.Flow)
	}
	return flows
}

// TestQueuedCallersShareOneWrite is the coalescing claim, made
// deterministic: while one flush is inside Write, k callers queue; when it
// returns, exactly one further Write carries all k frames in queue order,
// and every reply lands on its own caller.
func TestQueuedCallersShareOneWrite(t *testing.T) {
	const k = 12
	c, n := newStubClient(t, Config{}, echo)
	sc, results := heldFlush(t, c, n, 100, k)

	sc.gate <- nil
	recv(t, "the second write", sc.entered)
	sc.gate <- nil
	for i := 0; i <= k; i++ {
		r := <-results
		if r.err != nil || r.active != int64(r.flow) {
			t.Errorf("flow %d: got active %d, err %v", r.flow, r.active, r.err)
		}
	}
	ws := sc.written()
	if len(ws) != 2 {
		t.Fatalf("%d writes for %d calls, want 2", len(ws), k+1)
	}
	if got := decodeAdmits(t, ws[0]); len(got) != 1 || got[0] != 100 {
		t.Fatalf("first write carried flows %v, want [100]", got)
	}
	got := decodeAdmits(t, ws[1])
	if len(got) != k {
		t.Fatalf("second write carried %d frames, want %d", len(got), k)
	}
	for i, flow := range got {
		if flow != 101+uint64(i) {
			t.Fatalf("second write carried flows %v: not queue order", got)
		}
	}
}

// TestFailedFlushFailsCarriedAndQueued: a write error reaches the call the
// flush carried and every call queued behind it — once each: the pooled
// rendezvous they go back to must come out clean — and the slot redials.
func TestFailedFlushFailsCarriedAndQueued(t *testing.T) {
	const k = 8
	c, n := newStubClient(t, Config{}, echo)
	sc, results := heldFlush(t, c, n, 100, k)

	n.setOpen()
	boom := errors.New("boom")
	sc.gate <- boom
	for i := 0; i <= k; i++ {
		if r := <-results; !errors.Is(r.err, boom) {
			t.Errorf("flow %d: got %v, want the write error", r.flow, r.err)
		}
	}
	if got := len(sc.written()); got != 1 {
		t.Errorf("%d writes on the failed socket, want 1", got)
	}
	if got := c.conns[0].pendingCalls(); got != 0 {
		t.Errorf("%d calls still pending after the failure", got)
	}
	// A call completed twice would carry its second completion into the
	// pool, and whoever drew it next would return at once with no reply.
	for flow := uint64(1); flow <= 4*k; flow++ {
		d, err := c.Admit(context.Background(), flow, 1)
		if err != nil || d.Active != int64(flow) {
			t.Fatalf("after redial, flow %d: %+v, %v", flow, d, err)
		}
	}
	if n.dials() != 2 {
		t.Fatalf("%d dials, want 2", n.dials())
	}
}

// TestCloseDuringHeldFlush: Close does not wait for the write it
// interrupts, and the carried and the queued calls all see errClosed.
func TestCloseDuringHeldFlush(t *testing.T) {
	const k = 8
	c, n := newStubClient(t, Config{}, echo)
	_, results := heldFlush(t, c, n, 100, k)

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	recv(t, "Close", closed)
	for i := 0; i <= k; i++ {
		if r := <-results; !errors.Is(r.err, errClosed) {
			t.Errorf("flow %d: got %v, want errClosed", r.flow, r.err)
		}
	}
	if _, err := c.Admit(context.Background(), 1, 1); !errors.Is(err, errClosed) {
		t.Errorf("after Close: got %v, want errClosed", err)
	}
}

// TestRetiredQueueDiesWithItsSocket: frames queued behind a flush when the
// server refuses the connection are never written — not to the dead
// socket, not to the one dialed next.
func TestRetiredQueueDiesWithItsSocket(t *testing.T) {
	const k = 8
	c, n := newStubClient(t, Config{}, func(conn int, f *wire.Frame) []byte {
		if conn == 0 {
			return wire.AppendRefusal(nil, 0, wire.RefuseDraining)
		}
		return echo(conn, f)
	})
	sc, results := heldFlush(t, c, n, 100, k)

	// Let the first frame through; its answer is the refusal. The flusher
	// stays held in its second Write, the k frames in hand, until the
	// retire closes the socket under it.
	sc.gate <- nil
	var refused *refusedError
	for i := 0; i <= k; i++ {
		if r := <-results; !errors.As(r.err, &refused) || refused.Refusal != wire.RefuseDraining {
			t.Errorf("flow %d: got %v, want refusedError(draining)", r.flow, r.err)
		}
	}
	n.setOpen()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after the refusal: %v", err)
	}
	ws := n.conn(1).written()
	if len(ws) != 1 || !bytes.Equal(ws[0], wire.AppendPing(nil, uint64(k+2))) {
		t.Fatalf("the redialed socket saw %x, want one Ping with request id %d", ws, k+2)
	}
}

// TestAbandonedCallIsNotWoken: the reply to a call that timed out, or
// whose context was cancelled, is dropped when it comes, and the call
// after it gets its own reply and nothing else.
func TestAbandonedCallIsNotWoken(t *testing.T) {
	var (
		mu       sync.Mutex
		withheld []uint64
		got      = make(chan struct{}, 2) // one token per withheld request; the test sends two
	)
	c, n := newStubClient(t, Config{RequestTimeout: 250 * time.Millisecond}, func(_ int, f *wire.Frame) []byte {
		mu.Lock()
		defer mu.Unlock()
		if f.Flow < 3 {
			withheld = append(withheld, f.ReqID)
			got <- struct{}{}
			return nil
		}
		// Flow 3's reply comes behind late ones for everything withheld.
		var out []byte
		for _, id := range withheld {
			out = wire.AppendDecision(out, id, wire.Decision{Active: -1})
		}
		return wire.AppendDecision(out, f.ReqID, wire.Decision{Active: int64(f.Flow)})
	})
	n.setOpen()

	start := time.Now()
	if _, err := c.Admit(context.Background(), 1, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("silent server: got %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Fatalf("timed out after %v, before the request timeout", d)
	}
	<-got
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-got; cancel() }()
	if _, err := c.Admit(ctx, 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: got %v, want context.Canceled", err)
	}
	d, err := c.Admit(context.Background(), 3, 1)
	if err != nil || d.Active != 3 {
		t.Fatalf("the call after the abandoned ones: %+v, %v", d, err)
	}
	if got := c.conns[0].pendingCalls(); got != 0 {
		t.Errorf("%d calls still pending", got)
	}
}

// TestStuckWriteIsBounded: a peer that stops reading cannot hold the
// flusher — a caller like any other — past the request timeout, where the
// watchdog retires the connection, nor past its own context deadline when
// that comes sooner; either end fails the write and retires the
// connection.
func TestStuckWriteIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // RequestTimeout
		own     time.Duration // the caller's context deadline; 0: none
	}{
		{"request timeout", 100 * time.Millisecond, 0},
		{"own deadline", time.Minute, 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Addr: "stub", RequestTimeout: tc.timeout})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.dial = func(context.Context) (net.Conn, error) {
				near, far := net.Pipe() // synchronous: with nobody reading far, a Write blocks
				t.Cleanup(func() { far.Close() })
				return near, nil
			}
			ctx := context.Background()
			if tc.own > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.own)
				defer cancel()
			}
			start := time.Now()
			err = c.Ping(ctx)
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("ping to a peer that never reads: got %v, want a deadline error", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("the flusher was held for %v", d)
			}
			waitFor(t, "the retire", func() bool {
				p := c.conns[0]
				p.mu.Lock()
				defer p.mu.Unlock()
				return p.nc == nil
			})
		})
	}
}

// TestRepliesDrainWhileWriteIsStuck: the reader never waits on a write.
// With a write held inside Write, replies to calls already on the wire
// still reach their callers; the calls queued behind the held write fail
// when the watchdog cuts it — no sooner than RequestTimeout after it
// began, and within 1.25× of it plus scheduling slack.
func TestRepliesDrainWhileWriteIsStuck(t *testing.T) {
	const (
		k     = 15 // calls on the wire before a write is held
		burst = 8  // answered in one burst; each caller then sends again
		rt    = 500 * time.Millisecond
		slack = 200 * time.Millisecond
	)
	var (
		mu  sync.Mutex
		ids = map[uint64]uint64{} // flow → request id, for the frames the peer saw
	)
	c, n := newStubClient(t, Config{RequestTimeout: rt}, func(_ int, f *wire.Frame) []byte {
		mu.Lock()
		ids[f.Flow] = f.ReqID
		mu.Unlock()
		return nil // the test answers through the peer's half itself
	})
	sc, results := heldFlush(t, c, n, 1, k)
	sc.gate <- nil
	recv(t, "the second write", sc.entered)
	sc.gate <- nil
	waitFor(t, "the peer to see every frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ids) == k+1
	})
	// reply answers flows from the peer's side; it returns once the client
	// has read every byte.
	reply := func(flows ...uint64) {
		t.Helper()
		var out []byte
		mu.Lock()
		for _, f := range flows {
			out = wire.AppendDecision(out, ids[f], wire.Decision{Active: int64(f)})
		}
		mu.Unlock()
		read := make(chan struct{})
		go func() { sc.far.Write(out); close(read) }()
		recv(t, "the reader to take the replies", read)
	}
	expect := func(want uint64) {
		t.Helper()
		select {
		case r := <-results:
			if r.err != nil || r.active != int64(r.flow) || r.flow > want {
				t.Fatalf("flow %d: got active %d, err %v", r.flow, r.active, r.err)
			}
		case <-time.After(rt / 2):
			t.Fatalf("no reply reached its caller")
		}
	}

	type failure struct {
		err error
		at  time.Time
	}
	followUps := make(chan failure, burst)
	before := time.Now()
	flows := make([]uint64, burst)
	for i := range flows {
		flows[i] = uint64(i + 1)
	}
	reply(flows...)
	for range flows {
		expect(burst)
		go func() {
			_, err := c.Admit(context.Background(), 1000, 1)
			followUps <- failure{err, time.Now()}
		}()
	}
	recv(t, "the follow-ups' write", sc.entered) // held: the gate stays shut
	held := time.Now()
	pc := c.conns[0]
	waitFor(t, "the follow-ups to queue", func() bool { return pc.pendingCalls() == k+1 })

	// The write side is stuck; the reader is not.
	for flow := uint64(burst + 1); flow <= k+1; flow++ {
		reply(flow)
		expect(k + 1)
	}
	if d := time.Since(held); d >= rt {
		t.Fatalf("the replies took %v, the stuck write may already be cut", d)
	}

	for range flows {
		f := <-followUps
		if !errors.Is(f.err, context.DeadlineExceeded) && !errors.Is(f.err, os.ErrDeadlineExceeded) {
			t.Errorf("a call queued behind the stuck write: got %v, want a deadline error", f.err)
		}
		if d := f.at.Sub(before); d < rt {
			t.Errorf("a call behind the stuck write failed after %v, before the request timeout %v", d, rt)
		}
		if d := f.at.Sub(held); d > rt+rt/4+slack {
			t.Errorf("a call behind the stuck write failed %v after the write was held, want at most 1.25×%v + %v", d, rt, slack)
		}
	}
	waitFor(t, "the retire", func() bool {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return pc.nc == nil
	})
	if got := pc.pendingCalls(); got != 0 {
		t.Errorf("%d calls still pending after the retire", got)
	}
}
