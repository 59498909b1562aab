// Package server turns a gateway.Gateway into a network service: a TCP
// server speaking the internal/wire framed protocol, one goroutine per
// connection, built to keep the in-process admission cost (~110 ns, 0
// allocs) visible through the socket instead of burying it under
// per-request overhead.
//
// # The served fast path
//
// Three mechanisms close the gap between the wire and the in-process
// batched hot path; together they hold BenchmarkServerAdmit to a few
// hundred ns and ~0 allocs per decision:
//
//   - Vectorized burst decode. The reader prefers wire.Reader.
//     NextAdmitBurst, which walks the whole pipelined run of Admit frames
//     sitting in the read buffer and lands (reqID, flow, rate) directly
//     in the connection's AdmitBatch scratch — no intermediate Frame, one
//     bounds check per frame. The burst decoder only consumes frames the
//     generic decoder would decode identically (the differential tests in
//     internal/wire pin this), so the fast path changes the cost,
//     never the decisions.
//
//   - Micro-batching. Pending admits — vector-decoded or accumulated one
//     at a time — are decided with a single Gateway.AdmitBatch call: one
//     clock pair and one bound load amortized across the burst. The batch
//     flushes right before the first read that could block, when a
//     non-Admit frame arrives (preserving per-flow request order), or at
//     maxBatch frames.
//
//   - Reply coalescing. Responses are encoded into a per-connection
//     arena (conn.out) and written to the socket only when the goroutine
//     is about to block on a read, when the arena reaches a writev-sized
//     threshold, or at teardown — so a 64-deep pipelined round costs
//     typically one write syscall instead of 128. Read deadlines are
//     armed only before reads that can actually block, never per frame.
//
// Ownership: the connection's goroutine owns all the connection has — the
// batch scratch, the one response arena, the wire.Reader and the socket in
// both directions — so no byte changes goroutines and nothing is locked.
// Shutdown reaches it only through the atomic drain deadline and the
// socket's own deadline and Close calls. Per-listener accept loops (Serve
// is variadic; see Listen) own nothing but the accept call and the shard
// counters they stamp on new conns.
//
// # Robustness edges
//
// Every edge is explicit, counted, and visible in the Snapshot:
//
//   - accept refusal: past Config.MaxConns the server writes one
//     connection-scoped Refusal (overloaded) and closes — the serving
//     layer's analogue of the gateway's ReasonCapacity refusal;
//   - read/write deadlines bound how long a dead peer can pin a
//     goroutine;
//   - slow reader: nothing is read while a reply write is blocked, so a
//     peer that stops reading is held by TCP back-pressure at one arena
//     of replies and cut (counted as shed, no Refusal: the socket is what
//     failed) when the write outlasts Config.WriteTimeout;
//   - frame-rate cap: a token bucket per connection refuses (rate-limited)
//     and closes connections that exceed Config.FrameRate frames/sec;
//   - graceful drain: Shutdown stops accepting, lets each connection
//     finish the frames already in flight (decisions are flushed, not
//     dropped), and Departs nothing — abandoned flows are reclaimed by
//     the gateway's flow leases, the crash-consistency story PR 4 built.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Backend is the admission surface the server fronts: the four
// concurrent-safe decision methods the wire protocol needs, exactly as
// gateway.Gateway implements them. A cluster router satisfies the same
// shape, so the pooled client talks to a fleet transparently — the wire
// protocol cannot tell one link from N.
type Backend interface {
	AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error)
	DepartBatch(ids []uint64, dst []bool) []bool
	UpdateRate(flowID uint64, rate float64) error
	Touch(flowID uint64) error
}

var _ Backend = (*gateway.Gateway)(nil)

// maxBatch caps how many pipelined Admit (or Depart) frames coalesce into
// one AdmitBatch (DepartBatch) call; it is below wire.MaxBatch.
const maxBatch = 512

// Config parameterizes a Server.
type Config struct {
	// Gateway is the admission gateway the server fronts (required unless
	// Backend is set). The server only calls its concurrent-safe methods;
	// ticking it (Run or a virtual clock) stays the owner's job.
	Gateway *gateway.Gateway

	// Backend overrides Gateway as the admission surface — e.g. a cluster
	// router fronting N gateways. Nil defaults to Gateway; at least one of
	// the two is required. Ticking the backend stays the owner's job.
	Backend Backend

	// MaxConns caps concurrently served connections (default 1024). At
	// the cap, accepted connections get a Refusal (overloaded) frame and
	// are closed.
	MaxConns int

	// ReadTimeout bounds the wait for the next frame on an idle
	// connection (default 60s). Clients keep connections alive with
	// Ping or lease Touch traffic.
	ReadTimeout time.Duration

	// WriteTimeout bounds one write of the response arena (default 10s).
	// A peer that reads slower than it asks stalls its own connection —
	// nothing is read while a write is blocked — and is shed, without a
	// Refusal frame, when the write times out.
	WriteTimeout time.Duration

	// FrameRate caps request frames per second per connection; 0 (the
	// default) disables the cap. The bucket's burst equals one second's
	// allowance. A vector-decoded burst is charged as a unit: if the
	// bucket cannot cover the whole burst the connection is refused
	// (rate-limited), with decisions for the already-decoded admits
	// still flushed before close.
	FrameRate int

	// DrainGrace is how long a draining connection may keep processing
	// frames that were already in flight when Shutdown began (default
	// 250ms). The overall drain is additionally bounded by the context
	// given to Shutdown.
	DrainGrace time.Duration
}

// Server serves the wire protocol over TCP (or any net.Listener) against
// one Gateway. Construct with New; Serve may be called once.
type Server struct {
	cfg Config

	mu       sync.Mutex
	lns      []net.Listener
	shards   []shardStats // one per listener, sized in Serve
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // live connection goroutines

	// Serving-layer counters, merged into the observability surface next
	// to the gateway families (see Snapshot / WritePrometheus).
	accepted    metrics.Counter
	refused     metrics.Counter // over MaxConns at accept
	drainRef    metrics.Counter // refused because draining
	shed        metrics.Counter // cut because a reply write failed or timed out
	rateLimited metrics.Counter // frame-rate cap closes
	protoErrs   metrics.Counter // malformed frames and response ops from a client
	frames      metrics.Counter // request frames processed
	decisions   metrics.Counter // admission decisions served
	batches     metrics.Counter // AdmitBatch calls made
	activeConns atomic.Int64
	batchSizes  *metrics.Histogram // decisions per AdmitBatch call
	latency     *metrics.Histogram // served seconds per decision (batch mean)
}

// shardStats is the per-listener counter set: which accept loop a
// connection landed on, and how many bytes it moved. Sharding is only
// worth having if its balance is observable.
type shardStats struct {
	conns        metrics.Counter
	bytesRead    metrics.Counter
	bytesWritten metrics.Counter
}

// servedLatencyBounds spans 250ns to ~65ms (doubling) — wide enough for a
// loopback decision (~µs) and a cross-rack one (~ms).
func servedLatencyBounds() []float64 { return metrics.ExpBounds(250e-9, 2, 18) }

// New validates the configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		if cfg.Gateway == nil {
			return nil, fmt.Errorf("server: a Gateway or Backend is required")
		}
		cfg.Backend = cfg.Gateway
	}
	if cfg.MaxConns < 0 || cfg.FrameRate < 0 {
		return nil, fmt.Errorf("server: negative limits are invalid")
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 1024
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 250 * time.Millisecond
	}
	return &Server{
		cfg:        cfg,
		conns:      make(map[*conn]struct{}),
		batchSizes: metrics.NewHistogram(metrics.ExpBounds(1, 2, 11)),
		latency:    metrics.NewHistogram(servedLatencyBounds()),
	}, nil
}

// Serve accepts connections on the given listeners — one accept loop per
// listener, so the accept path scales across cores with a SO_REUSEPORT
// listener set (see Listen) — until the listeners fail or Shutdown closes
// them. Passing the same listener several times is the portable sharding
// fallback: Accept is safe for concurrent use, so N loops round-robin the
// kernel's accept queue. Serve returns nil after a graceful shutdown.
func (s *Server) Serve(lns ...net.Listener) error {
	if len(lns) == 0 {
		return fmt.Errorf("server: Serve needs at least one listener")
	}
	s.mu.Lock()
	if s.lns != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: Serve called twice")
	}
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already shut down")
	}
	s.lns = append([]net.Listener(nil), lns...)
	s.shards = make([]shardStats, len(lns))
	s.mu.Unlock()

	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	for i, ln := range lns {
		wg.Add(1)
		go func(shard int, ln net.Listener) {
			defer wg.Done()
			err := s.acceptLoop(ln, shard)
			if err == nil {
				return
			}
			errMu.Lock()
			if first == nil {
				first = err
				// Unblock the sibling accept loops so Serve returns.
				for _, l := range lns {
					l.Close()
				}
			}
			errMu.Unlock()
		}(i, ln)
	}
	wg.Wait()
	if s.Draining() {
		return nil
	}
	return first
}

// acceptLoop accepts on one listener, stamping its shard on every conn.
func (s *Server) acceptLoop(ln net.Listener, shard int) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.Draining() {
				return nil
			}
			return err
		}
		s.accept(nc, shard)
	}
}

// accept admits or refuses one freshly accepted connection.
func (s *Server) accept(nc net.Conn, shard int) {
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.drainRef.Inc()
		s.refuse(nc, wire.RefuseDraining)
		return
	case len(s.conns) >= s.cfg.MaxConns:
		s.mu.Unlock()
		s.refused.Inc()
		s.refuse(nc, wire.RefuseOverloaded)
		return
	}
	c := newConn(s, nc, &s.shards[shard])
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.accepted.Inc()
	s.shards[shard].conns.Inc()
	s.activeConns.Add(1)
	go c.serve()
}

// refuse writes a best-effort connection-scoped refusal and closes nc.
func (s *Server) refuse(nc net.Conn, r wire.Refusal) {
	nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	nc.Write(wire.AppendRefusal(nil, 0, r))
	nc.Close()
}

// remove unregisters a finished connection.
func (s *Server) remove(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.activeConns.Add(-1)
	s.wg.Done()
}

// Shutdown drains the server gracefully: stop accepting, give every live
// connection DrainGrace to finish the frames already in flight (their
// decisions are flushed before close), then wait for the connections to
// finish or ctx to expire, whichever is first. Remaining connections are
// force-closed on expiry. No flow is departed on behalf of disconnected
// clients — the gateway's leases reclaim abandoned flows, so a drain can
// never double-free a slot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: Shutdown called twice")
	}
	s.draining = true
	lns := s.lns
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close() // duplicate closes (shared-listener fallback) are harmless
	}
	deadline := time.Now().Add(s.cfg.DrainGrace)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for _, c := range conns {
		c.beginDrain(deadline)
	}
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ShardSnapshot is the per-listener slice of the serving snapshot.
type ShardSnapshot struct {
	Conns        int64 `json:"conns"`         // connections accepted on this shard
	BytesRead    int64 `json:"bytes_read"`    // request bytes read on this shard
	BytesWritten int64 `json:"bytes_written"` // response bytes written on this shard
}

// Snapshot is the serving-layer observability view, the sibling of
// gateway.Snapshot one layer up the stack. JSON-encodable; convertible to
// Prometheus text via WritePrometheus.
type Snapshot struct {
	ConnsActive      int64                     `json:"conns_active"`       // connections currently served
	ConnsAccepted    int64                     `json:"conns_accepted"`     // cumulative accepted connections
	ConnsRefused     int64                     `json:"conns_refused"`      // refused at accept: over MaxConns
	ConnsDrainRef    int64                     `json:"conns_drain_ref"`    // refused at accept: draining
	ConnsShed        int64                     `json:"conns_shed"`         // shed for a slow read side
	ConnsRateLimited int64                     `json:"conns_rate_limited"` // closed for exceeding the frame-rate cap
	ProtocolErrors   int64                     `json:"protocol_errors"`    // malformed frames
	Frames           int64                     `json:"frames"`             // request frames processed
	Decisions        int64                     `json:"decisions"`          // admission decisions served
	Batches          int64                     `json:"batches"`            // AdmitBatch calls made
	Draining         bool                      `json:"draining"`           // Shutdown in progress
	BatchSizes       metrics.HistogramSnapshot `json:"batch_sizes"`        // decisions per AdmitBatch call
	ServedLatency    metrics.HistogramSnapshot `json:"served_latency"`     // seconds per served decision (batch mean)
	ServedP50        float64                   `json:"served_p50"`         // median served seconds per decision
	ServedP99        float64                   `json:"served_p99"`         // 99th-percentile served seconds per decision
	Shards           []ShardSnapshot           `json:"shards"`             // per-listener accept/byte counters
}

// MeanBatch returns the average number of decisions coalesced per
// AdmitBatch call (0 before any batch) — the e2e test and benchmark
// assert that pipelined load actually engages the micro-batcher (mean > 1).
func (s Snapshot) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Decisions) / float64(s.Batches)
}

// Snapshot assembles the serving-layer snapshot (weakly consistent, like
// every metrics read in this codebase).
func (s *Server) Snapshot() Snapshot {
	lat := s.latency.Snapshot()
	snap := Snapshot{
		ConnsActive:      s.activeConns.Load(),
		ConnsAccepted:    s.accepted.Load(),
		ConnsRefused:     s.refused.Load(),
		ConnsDrainRef:    s.drainRef.Load(),
		ConnsShed:        s.shed.Load(),
		ConnsRateLimited: s.rateLimited.Load(),
		ProtocolErrors:   s.protoErrs.Load(),
		Frames:           s.frames.Load(),
		Decisions:        s.decisions.Load(),
		Batches:          s.batches.Load(),
		Draining:         s.Draining(),
		BatchSizes:       s.batchSizes.Snapshot(),
		ServedLatency:    lat,
		ServedP50:        lat.Quantile(0.50),
		ServedP99:        lat.Quantile(0.99),
	}
	s.mu.Lock()
	shards := s.shards
	s.mu.Unlock()
	snap.Shards = make([]ShardSnapshot, len(shards))
	for i := range shards {
		snap.Shards[i] = ShardSnapshot{
			Conns:        shards[i].conns.Load(),
			BytesRead:    shards[i].bytesRead.Load(),
			BytesWritten: shards[i].bytesWritten.Load(),
		}
	}
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the mbac_server_* namespace, next to the gateway's
// mbac_gateway_* families.
func (s Snapshot) WritePrometheus(w io.Writer) {
	metrics.WriteGauge(w, "mbac_server_conns_active", "connections currently served", float64(s.ConnsActive))
	metrics.WriteCounter(w, "mbac_server_conns_accepted_total", "cumulative accepted connections", s.ConnsAccepted)
	metrics.WriteCounter(w, "mbac_server_conns_refused_total", "connections refused at accept (over max-conns)", s.ConnsRefused)
	metrics.WriteCounter(w, "mbac_server_conns_drain_refused_total", "connections refused while draining", s.ConnsDrainRef)
	metrics.WriteCounter(w, "mbac_server_conns_shed_total", "connections shed for a slow read side", s.ConnsShed)
	metrics.WriteCounter(w, "mbac_server_conns_rate_limited_total", "connections closed for exceeding the frame-rate cap", s.ConnsRateLimited)
	metrics.WriteCounter(w, "mbac_server_protocol_errors_total", "malformed request frames", s.ProtocolErrors)
	metrics.WriteCounter(w, "mbac_server_frames_total", "request frames processed", s.Frames)
	metrics.WriteCounter(w, "mbac_server_decisions_total", "admission decisions served", s.Decisions)
	metrics.WriteCounter(w, "mbac_server_batches_total", "AdmitBatch calls made", s.Batches)
	draining := 0.0
	if s.Draining {
		draining = 1
	}
	metrics.WriteGauge(w, "mbac_server_draining", "1 while a graceful drain is in progress", draining)
	metrics.WriteHistogram(w, "mbac_server_batch_size", "admission decisions coalesced per AdmitBatch call", s.BatchSizes)
	metrics.WriteHistogram(w, "mbac_server_latency_seconds", "served seconds per admission decision (batch mean)", s.ServedLatency)
	metrics.WriteGauge(w, "mbac_server_latency_p50_seconds", "median served seconds per admission decision", s.ServedP50)
	metrics.WriteGauge(w, "mbac_server_latency_p99_seconds", "99th-percentile served seconds per admission decision", s.ServedP99)
	if len(s.Shards) > 0 {
		fmt.Fprint(w, "# HELP mbac_server_shard_conns_total connections accepted per listener shard\n# TYPE mbac_server_shard_conns_total counter\n")
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "mbac_server_shard_conns_total{shard=\"%d\"} %d\n", i, sh.Conns)
		}
		fmt.Fprint(w, "# HELP mbac_server_shard_bytes_read_total request bytes read per listener shard\n# TYPE mbac_server_shard_bytes_read_total counter\n")
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "mbac_server_shard_bytes_read_total{shard=\"%d\"} %d\n", i, sh.BytesRead)
		}
		fmt.Fprint(w, "# HELP mbac_server_shard_bytes_written_total response bytes written per listener shard\n# TYPE mbac_server_shard_bytes_written_total counter\n")
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "mbac_server_shard_bytes_written_total{shard=\"%d\"} %d\n", i, sh.BytesWritten)
		}
	}
}

// conn is one served connection and the one goroutine (serve) that reads
// its requests, decides them and writes the replies.
type conn struct {
	srv   *Server
	nc    net.Conn
	rd    *wire.Reader
	shard *shardStats

	// drainDeadline, unix-nanos, is set by beginDrain: past it the
	// goroutine stops waiting for new frames (0 = not draining). Written by
	// the Shutdown goroutine, read by serve when arming deadlines.
	drainDeadline atomic.Int64

	// Token bucket for the frame-rate cap.
	tokens     float64
	lastRefill time.Time

	// Scratch, reused across frames so the steady state serves without
	// allocating. pend and dep are the admit and depart batches under
	// accumulation — the burst decoders append to them directly; out is the
	// response arena, the only place a reply waits between being encoded
	// and being written. At most one of pend/dep is non-empty at any time:
	// switching request kind flushes the other first, which is what keeps
	// arena append order equal to request-arrival order.
	pend      wire.AdmitBurst
	dep       wire.DepartBurst
	depOK     []bool
	decisions []gateway.Decision
	wireDecs  []wire.Decision
	out       []byte
}

// coalesceBytes is the response-arena size that forces a write mid-burst:
// roughly one writev-worth of frames, so a long pipelined run neither
// writes per response nor builds an unbounded arena.
const coalesceBytes = 64 << 10

// cause is why a connection ends. Every step of the serving loop returns
// one — keepServing to go on — and serve is the only place a cause is
// counted and, where a Refusal exists for it, told to the peer.
type cause uint8

const (
	keepServing    cause = iota
	endPeerGone          // EOF, idle cut or drain cut: a clean close
	endWriteFailed       // a reply write failed or timed out: nothing more can be said
	endProtocol          // a malformed frame, or a response op from a client
	endRateLimited       // over Config.FrameRate
	endBackend           // the backend failed a batch the decoder had validated
)

// countingReader counts bytes pulled off the socket into the per-shard
// counter. It sits under the wire.Reader's bufio buffer, so the count
// costs one atomic add per fill, not per frame.
type countingReader struct {
	nc net.Conn
	n  *metrics.Counter
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.nc.Read(p)
	if n > 0 {
		r.n.Add(int64(n))
	}
	return n, err
}

// newConn wires up a connection.
func newConn(s *Server, nc net.Conn, shard *shardStats) *conn {
	c := &conn{srv: s, nc: nc, shard: shard}
	c.rd = wire.NewReader(countingReader{nc: nc, n: &shard.bytesRead})
	c.tokens = float64(s.cfg.FrameRate)
	c.lastRefill = time.Now()
	return c
}

// beginDrain tells the connection to stop waiting for new frames after
// deadline. Frames already buffered (or arriving before the deadline) are
// still processed and their responses flushed — the "no decision lost"
// half of the drain contract.
func (c *conn) beginDrain(deadline time.Time) {
	c.drainDeadline.Store(deadline.UnixNano())
	// Re-arm the read deadline in case serve is already blocked. It
	// re-applies the minimum of idle and drain deadlines before its next
	// blocking read, so a lost race here only delays the cut to the idle
	// timeout, and Shutdown's context still bounds the total drain.
	c.nc.SetReadDeadline(deadline)
}

// serve runs the connection from first frame to close. The cause readLoop
// ends for is counted here, once.
func (c *conn) serve() {
	why := c.readLoop()
	var refusal wire.Refusal
	switch why {
	case endWriteFailed:
		c.srv.shed.Inc()
	case endProtocol:
		c.srv.protoErrs.Inc()
		refusal = wire.RefuseProtocol
	case endRateLimited:
		c.srv.rateLimited.Inc()
		refusal = wire.RefuseRateLimited
	case endBackend:
		// A fault on this side: the one refusal that tells a client to
		// back off and come again.
		refusal = wire.RefuseOverloaded
	}
	// Batched requests are still decided and every reply still written, so
	// in-flight responses survive teardown (EOF, drain cut and refusals all
	// land here) — unless the socket is what failed.
	if why != endWriteFailed && c.flushPending() != endWriteFailed {
		if refusal != 0 {
			c.out = wire.AppendRefusal(c.out, 0, refusal)
		}
		c.flushOut()
	}
	c.nc.Close()
	c.srv.remove(c)
}

// readLoop serves frames until the connection ends and returns why.
//
// Each turn takes what is already buffered — a burst of Admit or Depart
// frames through the vectorized decoders, anything else through the
// generic one — without touching deadlines or the socket. Only when the
// buffer runs dry does it decide what is pending, write the response
// arena, arm the idle/drain deadline, and issue the one read that can
// block.
func (c *conn) readLoop() cause {
	var f wire.Frame
	// Frame counting is batched: accumulated locally and published once
	// per dry buffer (and at return), not once per frame.
	var nframes int64
	defer func() { c.srv.frames.Add(nframes) }()
	for {
		if n := c.rd.NextAdmitBurst(&c.pend, maxBatch-c.pend.Len()); n > 0 {
			nframes += int64(n)
			if !c.allowFrames(n) {
				return endRateLimited
			}
			// Older departs ack before these admits decide.
			if why := c.flushDeparts(); why != keepServing {
				return why
			}
			if c.pend.Len() >= maxBatch {
				if why := c.flushAdmits(); why != keepServing {
					return why
				}
			}
			continue
		}
		if n := c.rd.NextDepartBurst(&c.dep, maxBatch-c.dep.Len()); n > 0 {
			nframes += int64(n)
			if !c.allowFrames(n) {
				return endRateLimited
			}
			// Older admits decide before these departs ack.
			if why := c.flushAdmits(); why != keepServing {
				return why
			}
			if c.dep.Len() >= maxBatch {
				if why := c.flushDeparts(); why != keepServing {
					return why
				}
			}
			continue
		}
		ok, err := c.rd.NextBuffered(&f)
		if !ok {
			// The buffer is dry: decide what's pending and write the
			// coalesced responses before risking a blocking read.
			if why := c.flushPending(); why != keepServing {
				return why
			}
			if why := c.flushOut(); why != keepServing {
				return why
			}
			c.srv.frames.Add(nframes)
			nframes = 0
			rd := time.Now().Add(c.srv.cfg.ReadTimeout)
			if dd := c.drainDeadline.Load(); dd != 0 {
				if d := time.Unix(0, dd); d.Before(rd) {
					rd = d
				}
			}
			c.nc.SetReadDeadline(rd)
			if err = c.rd.Next(&f); err != nil && peerGone(err) {
				return endPeerGone
			}
		}
		if err != nil {
			return endProtocol // what is left can only be a malformed frame
		}
		nframes++
		if !c.allowFrames(1) {
			return endRateLimited
		}
		if why := c.handle(&f); why != keepServing {
			return why
		}
	}
}

// allowFrames charges n frames against the rate-cap token bucket.
func (c *conn) allowFrames(n int) bool {
	limit := c.srv.cfg.FrameRate
	if limit == 0 {
		return true
	}
	now := time.Now()
	c.tokens += now.Sub(c.lastRefill).Seconds() * float64(limit)
	if burst := float64(limit); c.tokens > burst {
		c.tokens = burst
	}
	c.lastRefill = now
	if c.tokens < float64(n) {
		return false
	}
	c.tokens -= float64(n)
	return true
}

// handle processes one decoded frame, appending responses to the arena.
func (c *conn) handle(f *wire.Frame) cause {
	g := c.srv.cfg.Backend
	switch f.Op {
	case wire.OpAdmit:
		// The generic half of the micro-batch: an Admit that completed
		// while the buffer held no whole frame, so the blocking Next read
		// it, not the burst decoder. Accumulate; the loop flushes before
		// blocking, and the cap flushes here.
		if why := c.flushDeparts(); why != keepServing {
			return why
		}
		c.pend.ReqIDs = append(c.pend.ReqIDs, f.ReqID)
		c.pend.Flows = append(c.pend.Flows, f.Flow)
		c.pend.Rates = append(c.pend.Rates, f.Rate)
		if c.pend.Len() >= maxBatch {
			return c.flushAdmits()
		}
		return keepServing
	case wire.OpDepart:
		// The generic half of the depart micro-batch, mirroring OpAdmit:
		// older admits decide first, then the depart accumulates.
		if why := c.flushAdmits(); why != keepServing {
			return why
		}
		c.dep.ReqIDs = append(c.dep.ReqIDs, f.ReqID)
		c.dep.Flows = append(c.dep.Flows, f.Flow)
		if c.dep.Len() >= maxBatch {
			return c.flushDeparts()
		}
		return keepServing
	}
	// Every other frame is answered on the spot, after the pending singles
	// (order preserved).
	if why := c.flushPending(); why != keepServing {
		return why
	}
	switch f.Op {
	case wire.OpAdmitBatch:
		// An explicit client-side batch, decided as one unit.
		t0 := time.Now()
		var err error
		c.decisions, err = g.AdmitBatch(f.Flows, f.Rates, c.decisions[:0])
		if err != nil {
			return endBackend // the decoder validated the lengths
		}
		n := len(c.decisions)
		c.srv.decisions.Add(int64(n))
		c.srv.batches.Inc()
		c.srv.batchSizes.Observe(float64(n))
		c.wireDecs = c.wireDecs[:0]
		for _, d := range c.decisions {
			c.wireDecs = append(c.wireDecs, wire.Decision{
				Reason: uint8(d.Reason), Admissible: d.Admissible, Active: d.Active,
			})
		}
		out, err := wire.AppendDecisionBatch(c.out, f.ReqID, c.wireDecs)
		if err != nil {
			return endBackend // unreachable: the decoder bounded the batch size
		}
		c.out = out
		c.srv.latency.ObserveN(time.Since(t0).Seconds()/float64(n), n)
	case wire.OpUpdateRate:
		st := wire.StatusOK
		if err := g.UpdateRate(f.Flow, f.Rate); errors.Is(err, gateway.ErrInvalidRate) {
			st = wire.StatusInvalidRate
		} else if err != nil {
			st = wire.StatusNotActive
		}
		c.out = wire.AppendAck(c.out, f.ReqID, st)
	case wire.OpTouch:
		st := wire.StatusOK
		if err := g.Touch(f.Flow); err != nil {
			st = wire.StatusNotActive
		}
		c.out = wire.AppendAck(c.out, f.ReqID, st)
	case wire.OpPing:
		c.out = wire.AppendPong(c.out, f.ReqID)
	default:
		return endProtocol // a response op from a client
	}
	return c.maybeFlushOut()
}

// flushAdmits decides the pending Admit frames with one AdmitBatch call
// and appends one Decision frame per request to the arena. The served
// latency histogram gets the batch's per-decision mean — decode-complete
// to response-encoded — attributed to every decision via ObserveN.
func (c *conn) flushAdmits() cause {
	n := c.pend.Len()
	if n == 0 {
		return keepServing
	}
	t0 := time.Now()
	var err error
	c.decisions, err = c.srv.cfg.Backend.AdmitBatch(c.pend.Flows, c.pend.Rates, c.decisions[:0])
	if err != nil || len(c.decisions) != n {
		c.pend.Reset()
		return endBackend // end rather than desync correlation
	}
	c.srv.decisions.Add(int64(n))
	c.srv.batches.Inc()
	c.srv.batchSizes.Observe(float64(n))
	for i, d := range c.decisions {
		c.out = wire.AppendDecision(c.out, c.pend.ReqIDs[i], wire.Decision{
			Reason:     uint8(d.Reason),
			Admissible: d.Admissible,
			Active:     d.Active,
		})
	}
	c.pend.Reset()
	c.srv.latency.ObserveN(time.Since(t0).Seconds()/float64(n), n)
	return c.maybeFlushOut()
}

// flushDeparts is flushAdmits for the pending Depart frames: one
// DepartBatch call, one Ack frame per request appended to the arena.
func (c *conn) flushDeparts() cause {
	n := c.dep.Len()
	if n == 0 {
		return keepServing
	}
	c.depOK = c.srv.cfg.Backend.DepartBatch(c.dep.Flows, c.depOK[:0])
	for i, ok := range c.depOK {
		st := wire.StatusOK
		if !ok {
			st = wire.StatusNotActive
		}
		c.out = wire.AppendAck(c.out, c.dep.ReqIDs[i], st)
	}
	c.dep.Reset()
	return c.maybeFlushOut()
}

// flushPending flushes both micro-batches. At most one is ever non-empty
// (handle and readLoop flush the other kind before switching), so the call
// order here never reorders responses.
func (c *conn) flushPending() cause {
	if why := c.flushAdmits(); why != keepServing {
		return why
	}
	return c.flushDeparts()
}

// maybeFlushOut writes the arena once it reaches the coalescing
// threshold; below it, responses keep accumulating until the goroutine is
// about to block on a read.
func (c *conn) maybeFlushOut() cause {
	if len(c.out) < coalesceBytes {
		return keepServing
	}
	return c.flushOut()
}

// flushOut writes the response arena to the socket in one deadline-bounded
// write. Nothing is read while the write is blocked, so a peer that has
// stopped reading is held by TCP back-pressure at this one arena and cut
// when WriteTimeout runs out.
func (c *conn) flushOut() cause {
	if len(c.out) == 0 {
		return keepServing
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	n, err := c.nc.Write(c.out)
	c.shard.bytesWritten.Add(int64(n))
	c.out = c.out[:0]
	if err != nil {
		return endWriteFailed
	}
	return keepServing
}

// peerGone reports whether a read error is the connection ending — EOF, a
// closed socket, the idle or drain deadline — rather than a bad frame.
// The errors.As target escapes, so the served path calls it on errors only.
func peerGone(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.As(err, &ne) && ne.Timeout()
}
