// Package client is the Go client for the admission gateway's wire
// protocol (internal/wire, served by internal/server). It is pipelined —
// many requests may be in flight on one connection, correlated by request
// id — and pooled: requests round-robin across Config.Conns connections,
// each with a single reader goroutine demultiplexing responses to
// waiters.
//
// Sending is a group commit. A caller encodes its frame into the
// connection's queue under a mutex that is never held across I/O; if
// another caller is already writing, it leaves the frame there and waits
// for its reply. The caller that finds nobody writing becomes the flusher
// and writes the queue — its own frame and whatever the others append
// while it is inside Write — until the queue is empty. Concurrent callers
// sharing a connection therefore emit back-to-back frames in one write,
// the shape the server's per-connection micro-batcher turns into one
// decide pass and one reply write. There is no flush timer and nothing to
// tune: a flusher that sees other calls pending yields the processor once
// before its first write, so that callers the reader has just woken can
// queue behind it, and a lone caller writes at once. A call in steady
// state allocates nothing: its rendezvous (channel, timeout timer) is
// pooled.
//
// Failure semantics: per-request errors (unknown flow, invalid rate)
// come back as ErrNotActive / ErrInvalidRate; a connection-scoped
// Refusal frame from the server (overloaded, draining, shed,
// rate-limited), a failed read or a failed flush fails every request
// pending on that connection — written or still queued — and retires the
// connection. Retired connections are redialed lazily on next use, so a
// client survives a server restart or drain without being rebuilt.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/wire"
)

// Errors mapping the protocol's per-request statuses.
var (
	// ErrNotActive reports an operation on a flow the gateway does not
	// consider active (never admitted, departed, or lease-expired).
	ErrNotActive = errors.New("client: flow is not active")
	// ErrInvalidRate reports a rate the gateway refuses to accept
	// (negative, NaN, or infinite).
	ErrInvalidRate = errors.New("client: invalid rate")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: closed")
)

// RefusedError is a connection-scoped refusal from the server: the
// connection carrying the request was refused or closed for cause, and
// the request outcome is unknown (admits may or may not have landed —
// the gateway's leases reclaim the orphans either way).
type RefusedError struct{ Refusal wire.Refusal }

func (e *RefusedError) Error() string {
	return fmt.Sprintf("client: connection refused by server: %s", e.Refusal)
}

// Config parameterizes a Client.
type Config struct {
	// Addr is the server's TCP address (required).
	Addr string
	// Conns is the connection-pool size (default 1). More connections
	// spread load across the server's per-connection reader goroutines;
	// fewer concentrate pipelining and thus server-side batching.
	Conns int
	// DialTimeout bounds one dial (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request; a context that ends earlier
	// bounds it sooner (default 10s).
	RequestTimeout time.Duration
}

// Client is a pooled, pipelined protocol client. Safe for concurrent use.
//
// Every call is bounded by Config.RequestTimeout and by its context,
// whichever ends first. A call that fails that way, or with a connection
// error, has an unknown outcome: an Admit may still have been admitted.
// A caller that gives the flow up need not chase it: on a gateway that
// runs leases (gateway.Config.FlowTTL), an admitted flow nobody refreshes
// is reclaimed when its lease runs out; calling Depart is harmless either
// way (ErrNotActive if the admit never landed).
type Client struct {
	cfg    Config
	conns  []*poolConn
	next   atomic.Uint64
	closed atomic.Bool
	dial   func(context.Context) (net.Conn, error) // dialTCP; tests substitute a stub
}

// New validates cfg and returns a Client. Connections are dialed lazily
// on first use, so New succeeds even while the server is still coming up.
func New(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("client: Addr is required")
	}
	if cfg.Conns < 0 {
		return nil, fmt.Errorf("client: Conns %d is invalid", cfg.Conns)
	}
	if cfg.Conns == 0 {
		cfg.Conns = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	c := &Client{cfg: cfg, conns: make([]*poolConn, cfg.Conns)}
	c.dial = c.dialTCP
	for i := range c.conns {
		c.conns[i] = &poolConn{client: c}
	}
	return c, nil
}

// Close fails all pending requests and closes every pooled connection.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, pc := range c.conns {
		pc.retire(ErrClosed)
	}
	return nil
}

// Admit asks the gateway to admit flowID at rate.
func (c *Client) Admit(ctx context.Context, flowID uint64, rate float64) (gateway.Decision, error) {
	res, err := c.roundTrip(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendAdmit(dst, reqID, flowID, rate)
	})
	if err != nil {
		return gateway.Decision{}, err
	}
	if res.op != wire.OpDecision {
		return gateway.Decision{}, fmt.Errorf("client: got %s in reply to Admit", res.op)
	}
	return fromWire(res.decision), nil
}

// AdmitBatch decides a whole batch in one request frame — one network
// round trip and one gateway AdmitBatch call for the lot. Decisions come
// back in request order, one per flow.
func (c *Client) AdmitBatch(ctx context.Context, flowIDs []uint64, rates []float64) ([]gateway.Decision, error) {
	if len(flowIDs) != len(rates) || len(flowIDs) == 0 || len(flowIDs) > wire.MaxBatch {
		return nil, fmt.Errorf("client: invalid batch: %d flows, %d rates (max %d)",
			len(flowIDs), len(rates), wire.MaxBatch)
	}
	res, err := c.roundTrip(ctx, func(dst []byte, reqID uint64) []byte {
		dst, _ = wire.AppendAdmitBatch(dst, reqID, flowIDs, rates)
		return dst
	})
	if err != nil {
		return nil, err
	}
	if res.op != wire.OpDecisionBatch || len(res.decisions) != len(flowIDs) {
		return nil, fmt.Errorf("client: got %s with %d decisions in reply to AdmitBatch(%d)",
			res.op, len(res.decisions), len(flowIDs))
	}
	out := make([]gateway.Decision, len(res.decisions))
	for i, d := range res.decisions {
		out[i] = fromWire(d)
	}
	return out, nil
}

// UpdateRate republishes flowID's rate for the next measurement tick.
func (c *Client) UpdateRate(ctx context.Context, flowID uint64, rate float64) error {
	return c.ackCall(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendUpdateRate(dst, reqID, flowID, rate)
	})
}

// Touch renews flowID's lease without changing its rate.
func (c *Client) Touch(ctx context.Context, flowID uint64) error {
	return c.ackCall(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendTouch(dst, reqID, flowID)
	})
}

// Depart releases flowID's admission slot.
func (c *Client) Depart(ctx context.Context, flowID uint64) error {
	return c.ackCall(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendDepart(dst, reqID, flowID)
	})
}

// Ping round-trips a liveness probe (also a lease-keepalive for the
// connection's idle timer).
func (c *Client) Ping(ctx context.Context) error {
	res, err := c.roundTrip(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendPing(dst, reqID)
	})
	if err != nil {
		return err
	}
	if res.op != wire.OpPong {
		return fmt.Errorf("client: got %s in reply to Ping", res.op)
	}
	return nil
}

// ackCall issues a request whose reply is an Ack and maps its status.
func (c *Client) ackCall(ctx context.Context, enc func([]byte, uint64) []byte) error {
	res, err := c.roundTrip(ctx, enc)
	if err != nil {
		return err
	}
	if res.op != wire.OpAck {
		return fmt.Errorf("client: got %s, want Ack", res.op)
	}
	switch res.status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotActive:
		return ErrNotActive
	case wire.StatusInvalidRate:
		return ErrInvalidRate
	default:
		return fmt.Errorf("client: unknown status %d", res.status)
	}
}

// fromWire rebuilds the gateway's decision struct from its wire form.
func fromWire(d wire.Decision) gateway.Decision {
	return gateway.Decision{
		Admitted:   d.Reason == uint8(gateway.ReasonAdmitted),
		Reason:     gateway.Reason(d.Reason),
		Admissible: d.Admissible,
		Active:     d.Active,
	}
}

// result is the demultiplexed reply to one request. Slices are owned by
// the result (copied out of the reader's reused frame).
type result struct {
	op        wire.Op
	status    wire.Status
	decision  wire.Decision
	decisions []wire.Decision
}

// call is one in-flight request's rendezvous. Whoever removes a call from
// its connection's pending map — the reader with the reply, retire with the
// connection's error — completes it, exactly once, so the send on done
// never blocks. Calls are pooled: one whose completion the caller received
// goes back to callPool; one the caller gave up on (timeout, cancellation)
// is left to the collector, because the reader may be completing it at
// that very moment.
type call struct {
	done  chan struct{} // capacity 1
	timer *time.Timer   // the request timeout; stopped and drained while pooled
	res   result
	err   error
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop() // just created, so it cannot have fired: nothing to drain
	return &call{done: make(chan struct{}, 1), timer: t}
}}

// complete hands the outcome to the waiting caller.
func (cl *call) complete(res result, err error) {
	cl.res, cl.err = res, err
	cl.done <- struct{}{}
}

// release returns cl to the pool. The caller must not have received from
// cl.timer.C since arming it, and nobody else may hold cl. go.mod says go
// 1.22, so a timer that fired before Stop has left (or is about to leave)
// a value in its channel: stop, then drain.
func (cl *call) release() {
	if !cl.timer.Stop() {
		<-cl.timer.C
	}
	cl.res, cl.err = result{}, nil
	callPool.Put(cl)
}

// roundTrip sends one encoded request on a pooled connection and waits
// for its correlated reply, for at most the request timeout and no longer
// than ctx allows.
func (c *Client) roundTrip(ctx context.Context, enc func(dst []byte, reqID uint64) []byte) (result, error) {
	if c.closed.Load() {
		return result{}, ErrClosed
	}
	pc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	cl := callPool.Get().(*call)
	cl.timer.Reset(c.cfg.RequestTimeout)
	reqID, err := pc.send(ctx, cl, enc)
	if err != nil {
		cl.release() // never registered
		return result{}, err
	}
	select {
	case <-cl.done:
		res, err := cl.res, cl.err
		cl.release()
		return res, err
	case <-ctx.Done():
		err = ctx.Err()
	case <-cl.timer.C:
		err = context.DeadlineExceeded
	}
	pc.forget(reqID)
	cl.timer.Stop()
	return result{}, err
}

// poolConn is one pooled connection: a lazily dialed socket, a queue of
// encoded request frames that senders append to and one of them flushes,
// and a reader goroutine routing replies to pending calls by request id.
//
// Lock order: dmu (held across a dial, so concurrent senders do not
// double-dial the slot) before mu. mu guards only in-memory state and is
// never held across I/O, so retire/Close always complete immediately: the
// flusher writes outside mu, from a buffer it swapped out of the queue,
// against a captured net.Conn; a concurrent retire closes the socket,
// which fails the blocked write instead of waiting for it.
//
// Wire order on a connection is queue order. A caller's own sequential
// RPCs stay ordered because each waits for its reply before the next is
// queued; concurrent callers are ordered by who took mu first, which is
// also the order of their request ids (nothing depends on ids being
// monotone on the wire — replies are matched by id alone).
type poolConn struct {
	client *Client

	dmu sync.Mutex // serializes dialing

	mu       sync.Mutex // guards everything below; never held across I/O
	nc       net.Conn
	gen      uint64 // bumped on retire so a stale reader or flusher can't touch a redial
	nextReq  uint64 // monotone across redials, so reqIDs never collide between sockets
	pending  map[uint64]*call
	queue    []byte // frames registered for generation gen and not yet handed to Write
	wbuf     []byte // the buffer the flusher last wrote from; swapped with queue per flush
	flushing bool   // a sender of generation gen owns the socket's write side
}

// send registers cl, queues its request frame, and — if no sender is
// flushing this connection — flushes the queue itself: its own frame plus
// whatever other callers append while it is writing. After send returns
// nil the outcome, a write failure included, arrives through cl.
func (p *poolConn) send(ctx context.Context, cl *call, encode func([]byte, uint64) []byte) (uint64, error) {
	p.mu.Lock()
	if p.nc == nil {
		p.mu.Unlock()
		if err := p.connect(ctx); err != nil {
			return 0, err
		}
	}
	p.nextReq++
	reqID := p.nextReq
	p.pending[reqID] = cl
	p.queue = encode(p.queue, reqID)
	if p.flushing {
		p.mu.Unlock()
		return reqID, nil
	}
	p.flushing = true
	nc, gen := p.nc, p.gen
	others := len(p.pending) > 1
	p.mu.Unlock()
	if others {
		// Replies come in bursts and the reader wakes their callers
		// together; let the ones already runnable queue behind this frame
		// before the write. A lone caller has nobody to wait for.
		runtime.Gosched()
	}
	p.flush(ctx, nc, gen)
	return reqID, nil
}

// flush writes the queue to nc until it is empty. Only the sender that set
// flushing for generation gen calls it; a retire in between drops the
// queue and the claim with the generation, and flush then writes nothing
// more.
func (p *poolConn) flush(ctx context.Context, nc net.Conn, gen uint64) {
	// The flusher's own deadline bounds the write that carries its own
	// frame, the first; the later ones it makes on behalf of callers whose
	// contexts it cannot see, and a short one of its own must not fail them.
	own, hasOwn := ctx.Deadline()
	for {
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock()
			return
		}
		if len(p.queue) == 0 {
			p.flushing = false
			p.mu.Unlock()
			return
		}
		buf := p.queue
		p.queue, p.wbuf = p.wbuf[:0], buf
		p.mu.Unlock()

		// Every frame in buf was queued by a call whose request timeout
		// is already running, so a write stuck this long serves nobody.
		deadline := time.Now().Add(p.client.cfg.RequestTimeout)
		if hasOwn && own.Before(deadline) {
			deadline = own
		}
		hasOwn = false
		nc.SetWriteDeadline(deadline)
		if _, err := nc.Write(buf); err != nil {
			// Fails the calls buf carried and the ones queued behind it,
			// unless a retire (which already failed them) closed the socket
			// under this write.
			p.failConn(nc, gen, fmt.Errorf("client: write: %w", err))
			return
		}
	}
}

// connect dials the slot's socket unless another sender just did. On
// success it returns with mu held, so the caller registers on the socket
// it was given before a retire can take it away.
func (p *poolConn) connect(ctx context.Context) error {
	p.dmu.Lock()
	defer p.dmu.Unlock()
	p.mu.Lock()
	if p.nc == nil && !p.client.closed.Load() {
		// Dial outside mu so Close/retire never waits on the network.
		p.mu.Unlock()
		nc, err := p.client.dial(ctx)
		if err != nil {
			return err
		}
		p.mu.Lock()
		if p.client.closed.Load() {
			nc.Close()
		} else {
			p.nc = nc
			p.pending = make(map[uint64]*call)
			go p.readLoop(nc, p.gen)
		}
	}
	if p.client.closed.Load() {
		p.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// dialTCP establishes a socket, inside the dial timeout and the request
// timeout of the call that needs it.
func (c *Client) dialTCP(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout, Deadline: time.Now().Add(c.cfg.RequestTimeout)}
	nc, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.cfg.Addr, err)
	}
	return nc, nil
}

// forget abandons a call the caller stopped waiting for (timeout or
// context expiry); a late reply for it is dropped by the reader.
func (p *poolConn) forget(reqID uint64) {
	p.mu.Lock()
	delete(p.pending, reqID)
	p.mu.Unlock()
}

// retire fails all pending calls and closes the socket; the next send
// redials. It takes only mu, so it returns promptly even while a sender is
// blocked mid-write or mid-dial on this slot.
func (p *poolConn) retire(err error) {
	p.mu.Lock()
	p.retireLocked(err)
	p.mu.Unlock()
}

// retireLocked closes the socket first — unblocking any in-flight write —
// then fails every pending call, written or still queued, and drops the
// queue: those frames were for this socket only. Caller holds mu.
func (p *poolConn) retireLocked(err error) {
	if p.nc != nil {
		p.nc.Close()
		p.nc = nil
	}
	p.gen++ // invalidate the reader and the flusher that served this socket
	p.queue = p.queue[:0]
	p.wbuf = nil // the stale flusher may still be inside Write with it
	p.flushing = false
	for id, cl := range p.pending {
		delete(p.pending, id)
		cl.complete(result{}, err)
	}
}

// readLoop demultiplexes replies from one socket until it dies. gen ties
// the loop to the socket it was started for, so a loop outliving a
// retire/redial cycle cannot fail the new socket's calls.
func (p *poolConn) readLoop(nc net.Conn, gen uint64) {
	rd := wire.NewReader(nc)
	var f wire.Frame
	for {
		if err := rd.Next(&f); err != nil {
			p.failConn(nc, gen, readErr(err))
			return
		}
		if f.Op == wire.OpRefusal {
			// Connection-scoped: the server is closing us for cause.
			p.failConn(nc, gen, &RefusedError{Refusal: f.Refusal})
			return
		}
		p.mu.Lock()
		cl := p.pending[f.ReqID]
		delete(p.pending, f.ReqID)
		p.mu.Unlock()
		if cl == nil {
			continue // reply to a forgotten (timed-out) call
		}
		res := result{op: f.Op, status: f.Status, decision: f.Decision}
		if f.Op == wire.OpDecisionBatch {
			res.decisions = append([]wire.Decision(nil), f.Decisions...)
		}
		cl.complete(res, nil)
	}
}

// failConn retires the pool slot only if it still serves the generation
// the caller observed — a stale reader or a flusher whose write lost to a
// retire/redial cycle must not fail the new socket's calls.
func (p *poolConn) failConn(nc net.Conn, gen uint64, err error) {
	p.mu.Lock()
	if p.gen == gen && p.nc == nc {
		p.retireLocked(err)
	}
	p.mu.Unlock()
}

// readErr normalizes reader errors into something actionable for callers.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("client: connection closed by server: %w", err)
	}
	return fmt.Errorf("client: read: %w", err)
}
