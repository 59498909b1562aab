// Package client is the Go client for the admission gateway's wire
// protocol (internal/wire, served by internal/server). It is pipelined —
// many requests may be in flight on one connection, correlated by request
// id — and pooled: requests round-robin across Config.Conns connections,
// each with a single reader goroutine demultiplexing responses to
// waiters.
//
// Sending is a group commit. A caller encodes its frame into the
// connection's queue under a mutex that is never held across I/O; if the
// connection's write side is claimed, it leaves the frame there and waits
// for its reply. A caller that finds the write side free claims it and
// writes the queue — its own frame and whatever the others append while
// it is inside Write — until the queue is empty. It yields the processor
// once first if other calls are pending, so that callers already runnable
// can queue behind it; a lone caller writes at once. While the reader
// completes a burst of replies it claims the write side for the callers
// it wakes: they queue their next frames behind the claim, and when the
// read buffer runs dry the reader hands the claim to the connection's
// writer goroutine, which writes them all at once. The reader itself
// never writes, so it keeps draining replies while a write is stuck.
// Concurrent callers sharing a connection therefore emit back-to-back
// frames in one write, the shape the server's per-connection
// micro-batcher turns into one decide pass and one reply write. There is
// no flush timer and nothing to tune.
//
// Each connection runs one watchdog instead of a timer per call: it ticks
// every RequestTimeout/4, completes the calls that have waited longer
// than RequestTimeout with context.DeadlineExceeded, and retires the
// connection if one write has been in flight that long. A call in steady
// state allocates nothing: its rendezvous (a capacity-1 channel) is
// pooled.
//
// Failure semantics: per-request errors (unknown flow, invalid rate)
// come back as ErrNotActive / ErrInvalidRate; a connection-scoped
// Refusal frame from the server (overloaded, draining, shed,
// rate-limited), a failed read, a failed flush or a write the watchdog
// cut fails every request pending on that connection — written or still
// queued — and retires the connection. Retired connections are redialed
// lazily on next use, so a client survives a server restart or drain
// without being rebuilt.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	// (negative, NaN, above the gateway's maximum rate, or more than the
	// flow's shard can carry).
	ErrInvalidRate = errors.New("client: invalid rate")
	// errClosed reports use of a closed client.
	errClosed = errors.New("client: closed")
)

// refusedError is a connection-scoped refusal from the server: the
// connection carrying the request was refused or closed for cause, and
// the request outcome is unknown (admits may or may not have landed —
// the gateway's leases reclaim the orphans either way).
type refusedError struct{ Refusal wire.Refusal }

func (e *refusedError) Error() string {
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
	// bounds it sooner (default 10s). The connection's watchdog checks
	// every RequestTimeout/4, so a request that times out fails between 1×
	// and 1.25× RequestTimeout after it was queued on its connection (a
	// dial it waits for first is bounded separately, by DialTimeout and
	// RequestTimeout). A write that long in flight retires the connection.
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
		pc.retire(errClosed)
	}
	return nil
}

// Admit asks the gateway to admit flowID at rate.
func (c *Client) Admit(ctx context.Context, flowID uint64, rate float64) (gateway.Decision, error) {
	cl, err := c.roundTrip(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendAdmit(dst, reqID, flowID, rate)
	})
	if err != nil {
		return gateway.Decision{}, err
	}
	defer cl.release()
	if cl.res.op != wire.OpDecision {
		return gateway.Decision{}, fmt.Errorf("client: got %s in reply to Admit", cl.res.op)
	}
	return fromWire(cl.res.decision), nil
}

// AdmitBatch decides a whole batch in one request frame — one network
// round trip and one gateway AdmitBatch call for the lot. Decisions come
// back in request order, one per flow.
func (c *Client) AdmitBatch(ctx context.Context, flowIDs []uint64, rates []float64) ([]gateway.Decision, error) {
	if len(flowIDs) != len(rates) || len(flowIDs) == 0 || len(flowIDs) > wire.MaxBatch {
		return nil, fmt.Errorf("client: invalid batch: %d flows, %d rates (max %d)",
			len(flowIDs), len(rates), wire.MaxBatch)
	}
	cl, err := c.roundTrip(ctx, func(dst []byte, reqID uint64) []byte {
		dst, _ = wire.AppendAdmitBatch(dst, reqID, flowIDs, rates)
		return dst
	})
	if err != nil {
		return nil, err
	}
	defer cl.release()
	res := &cl.res
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
	cl, err := c.roundTrip(ctx, func(dst []byte, reqID uint64) []byte {
		return wire.AppendPing(dst, reqID)
	})
	if err != nil {
		return err
	}
	defer cl.release()
	if cl.res.op != wire.OpPong {
		return fmt.Errorf("client: got %s in reply to Ping", cl.res.op)
	}
	return nil
}

// ackCall issues a request whose reply is an Ack and maps its status.
func (c *Client) ackCall(ctx context.Context, enc func([]byte, uint64) []byte) error {
	cl, err := c.roundTrip(ctx, enc)
	if err != nil {
		return err
	}
	defer cl.release()
	res := &cl.res
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

// result is the demultiplexed reply to one request. decisions is the
// pooled call's own buffer, valid until the call is released.
type result struct {
	op        wire.Op
	status    wire.Status
	decision  wire.Decision
	decisions []wire.Decision
}

// call is one in-flight request's rendezvous. Whoever removes a call from
// its connection's pending map — the reader with the reply, the watchdog
// with the timeout, retire with the connection's error — completes it,
// exactly once, so the send on done never blocks. Calls are pooled: one
// whose completion the caller received goes back to callPool; one whose
// caller gave up on a cancelled context is left to the collector, because
// the reader may be completing it at that very moment.
type call struct {
	done  chan struct{} // capacity 1
	epoch uint64        // the connection's watchdog epoch when the call was queued
	res   result
	err   error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// complete hands the outcome to the waiting caller.
func (cl *call) complete(res result, err error) {
	cl.res, cl.err = res, err
	cl.done <- struct{}{}
}

// release returns cl to the pool, keeping its decisions buffer for the
// next AdmitBatch. The caller must have received cl's completion, and
// must not use cl.res afterwards.
func (cl *call) release() {
	cl.res, cl.err = result{decisions: cl.res.decisions[:0]}, nil
	callPool.Put(cl)
}

// roundTrip sends one encoded request on a pooled connection and waits
// for its correlated reply, for at most the request timeout and no longer
// than ctx allows. On success the reply is in the returned call's res,
// and the caller releases the call once it has read it.
func (c *Client) roundTrip(ctx context.Context, enc func(dst []byte, reqID uint64) []byte) (*call, error) {
	if c.closed.Load() {
		return nil, errClosed
	}
	pc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	cl := callPool.Get().(*call)
	reqID, err := pc.send(ctx, cl, enc)
	if err != nil {
		cl.release() // never registered
		return nil, err
	}
	if done := ctx.Done(); done == nil {
		<-cl.done // the watchdog bounds the wait
	} else {
		select {
		case <-cl.done:
		case <-done:
			pc.forget(reqID)
			return nil, ctx.Err()
		}
	}
	if cl.err != nil {
		err := cl.err
		cl.release()
		return nil, err
	}
	return cl, nil
}

// watchEpochs is how many watchdog ticks make one RequestTimeout: a call
// or a write older than that many epochs has outlived it.
const watchEpochs = 4

// errWriteStuck fails the calls queued behind a write the watchdog cut.
var errWriteStuck = fmt.Errorf("client: write outlasted the request timeout: %w", os.ErrDeadlineExceeded)

// poolConn is one pooled connection: a lazily dialed socket, a queue of
// encoded request frames that senders append to and one of them flushes,
// a reader goroutine routing replies to pending calls by request id, a
// writer goroutine flushing the queue when the reader hands it the write
// claim, and a watchdog timing out calls and writes.
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
	gen      uint64 // bumped on retire so a stale reader, flusher or watchdog can't touch a redial
	nextReq  uint64 // monotone across redials, so reqIDs never collide between sockets
	pending  map[uint64]*call
	queue    []byte      // frames registered for generation gen and not yet handed to Write
	wbuf     []byte      // the buffer the flusher last wrote from; swapped with queue per flush
	flushing bool        // the write side of generation gen is claimed: by a sender, the reader or the writer
	writing  bool        // the claim holder is inside Write, since epoch wroteIn
	wroteIn  uint64      // the watchdog epoch the current Write began in
	epoch    uint64      // watchdog ticks so far; calls and writes record it
	watch    *time.Timer // the watchdog of generation gen; nil while no socket is up
}

// send registers cl, queues its request frame, and — if nobody has
// claimed the connection's write side — flushes the queue itself: its own
// frame plus whatever other callers append while it is writing. After
// send returns nil the outcome, a write failure included, arrives through
// cl.
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
	cl.epoch = p.epoch
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
		// Let callers already runnable queue behind this frame before the
		// write. A lone caller has nobody to wait for.
		runtime.Gosched()
	}
	own, _ := ctx.Deadline()
	p.flush(nc, gen, own)
	return reqID, nil
}

// flush writes the queue to nc until it is empty. Only the holder of the
// write claim for generation gen calls it — a sender that found the write
// side free, or the writer the reader handed its claim to; a retire in
// between drops the queue and the claim with the generation, and flush
// then writes nothing more.
//
// The watchdog, not a write deadline, bounds a write. The one exception is
// a sender whose own context deadline (own; zero if none) is sooner than
// the request timeout: that deadline bounds the write carrying its own
// frame, the first, and is cleared after it — the later writes are made
// on behalf of callers whose contexts the flusher cannot see, and a short
// deadline of its own must not fail them.
func (p *poolConn) flush(nc net.Conn, gen uint64, own time.Time) {
	if !own.IsZero() && time.Until(own) >= p.client.cfg.RequestTimeout {
		own = time.Time{}
	}
	for {
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock()
			return
		}
		p.writing = false
		if len(p.queue) == 0 {
			p.flushing = false
			p.mu.Unlock()
			return
		}
		buf := p.queue
		p.queue, p.wbuf = p.wbuf[:0], buf
		p.writing, p.wroteIn = true, p.epoch
		p.mu.Unlock()

		if !own.IsZero() {
			nc.SetWriteDeadline(own)
		}
		_, err := nc.Write(buf)
		if !own.IsZero() {
			nc.SetWriteDeadline(time.Time{})
			own = time.Time{}
		}
		if err != nil {
			// Fails the calls buf carried and the ones queued behind it,
			// unless a retire (which already failed them) closed the socket
			// under this write.
			p.failConn(nc, gen, fmt.Errorf("client: write: %w", err))
			return
		}
	}
}

// writeLoop is the connection's writer: it flushes the queue each time the
// reader hands it the write claim, and ends when the reader closes kick.
func (p *poolConn) writeLoop(nc net.Conn, gen uint64, kick <-chan struct{}) {
	for range kick {
		p.flush(nc, gen, time.Time{})
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
			gen := p.gen
			// Capacity 1: the reader hands over a claim only while it holds
			// one, and the writer takes it off the channel before releasing
			// it, so the reader's send never blocks.
			kick := make(chan struct{}, 1)
			go p.readLoop(nc, gen, kick)
			go p.writeLoop(nc, gen, kick)
			p.watch = time.AfterFunc(p.client.cfg.RequestTimeout/watchEpochs, func() { p.tick(gen) })
		}
	}
	if p.client.closed.Load() {
		p.mu.Unlock()
		return errClosed
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

// tick is the watchdog of generation gen, run every RequestTimeout/4. It
// completes with context.DeadlineExceeded every call queued more than
// watchEpochs ticks ago — between 1× and 1.25× RequestTimeout — and
// retires the connection if the write in flight began that long ago,
// which closes the socket under it.
func (p *poolConn) tick(gen uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen {
		return
	}
	p.epoch++
	for id, cl := range p.pending {
		if p.epoch-cl.epoch > watchEpochs {
			delete(p.pending, id)
			cl.complete(result{}, context.DeadlineExceeded)
		}
	}
	if p.writing && p.epoch-p.wroteIn > watchEpochs {
		p.retireLocked(errWriteStuck)
		return
	}
	p.watch.Reset(p.client.cfg.RequestTimeout / watchEpochs)
}

// forget abandons a call whose caller's context ended; a late reply for
// it is dropped by the reader.
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
// then stops the watchdog, fails every pending call, written or still
// queued, and drops the queue: those frames were for this socket only.
// Caller holds mu.
func (p *poolConn) retireLocked(err error) {
	if p.nc != nil {
		p.nc.Close()
		p.nc = nil
	}
	if p.watch != nil {
		p.watch.Stop()
		p.watch = nil
	}
	p.gen++ // invalidate the reader, the flushers and the watchdog that served this socket
	p.queue = p.queue[:0]
	p.wbuf = nil // the stale flusher may still be inside Write with it
	p.flushing, p.writing = false, false
	for id, cl := range p.pending {
		delete(p.pending, id)
		cl.complete(result{}, err)
	}
}

// readLoop demultiplexes replies from one socket until it dies, then
// closes kick, which ends the socket's writer. gen ties the loop to the
// socket it was started for, so a loop outliving a retire/redial cycle
// cannot fail the new socket's calls.
//
// The reader never writes. While it completes a burst of replies with
// other calls still pending, it claims the write side if nobody holds it,
// so the callers it wakes queue their next frames instead of each
// writing; when the read buffer runs dry it hands the claim to the writer
// (or drops it, if nobody queued) before it blocks in the next read.
func (p *poolConn) readLoop(nc net.Conn, gen uint64, kick chan<- struct{}) {
	defer close(kick)
	rd := wire.NewReader(nc)
	var f wire.Frame
	claimed := false
	for {
		ok, err := rd.NextBuffered(&f)
		if !ok {
			if claimed {
				claimed = false
				p.handOff(gen, kick)
			}
			err = rd.Next(&f)
		}
		if err != nil {
			p.failConn(nc, gen, readErr(err))
			return
		}
		if f.Op == wire.OpRefusal {
			// Connection-scoped: the server is closing us for cause.
			p.failConn(nc, gen, &refusedError{Refusal: f.Refusal})
			return
		}
		p.mu.Lock()
		cl := p.pending[f.ReqID]
		delete(p.pending, f.ReqID)
		if cl != nil && !p.flushing && len(p.pending) > 0 && p.gen == gen {
			p.flushing, claimed = true, true
		}
		p.mu.Unlock()
		if cl == nil {
			continue // reply to a forgotten (cancelled) call
		}
		res := result{op: f.Op, status: f.Status, decision: f.Decision, decisions: cl.res.decisions[:0]}
		if f.Op == wire.OpDecisionBatch {
			res.decisions = append(res.decisions, f.Decisions...)
		}
		cl.complete(res, nil)
	}
}

// handOff ends the reader's claim on the write side of generation gen.
// It first yields once, so the callers the burst woke can queue their
// frames; then it hands the claim to the writer if anything was queued,
// and releases it otherwise.
func (p *poolConn) handOff(gen uint64, kick chan<- struct{}) {
	runtime.Gosched()
	p.mu.Lock()
	if p.gen == gen { // else a retire already dropped the claim
		if len(p.queue) == 0 {
			p.flushing = false
		} else {
			kick <- struct{}{}
		}
	}
	p.mu.Unlock()
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
