package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/wire"
)

// perRound is the burst shape: 64 Admit then 64 Depart frames per round,
// the BenchmarkServerAdmit shape the 277 ns/decision lineage was measured
// with.
const perRound = 64

// burstInputs is what -seed decides for served-burst: each connection's
// pre-encoded request round (the rates inside it).
type burstInputs struct {
	reqs [][]byte
}

func burstFlow(conn, i int) uint64 { return uint64(conn)<<32 | uint64(i) }

func genBurst(seed uint64, p int) burstInputs {
	r := rand.New(rand.NewSource(int64(mix(seed, 1))))
	in := burstInputs{reqs: make([][]byte, p)}
	for c := range in.reqs {
		var req []byte
		for i := 0; i < perRound; i++ {
			req = wire.AppendAdmit(req, uint64(i+1), burstFlow(c, i), drawRate(r))
		}
		for i := 0; i < perRound; i++ {
			req = wire.AppendDepart(req, uint64(perRound+i+1), burstFlow(c, i))
		}
		in.reqs[c] = req
	}
	return in
}

// drawRate draws one flow rate from the paper's RCBR marginal, a Gaussian
// with sigma/mu = 0.3 truncated away from zero.
func drawRate(r *rand.Rand) float64 {
	for {
		if x := 1 + 0.3*r.NormFloat64(); x > 0.05 {
			return x
		}
	}
}

func (in burstInputs) hash() uint64 {
	h := fnv.New64a()
	for _, r := range in.reqs {
		h.Write(r)
	}
	return h.Sum64()
}

// servedGateway is the gateway configuration of BenchmarkGatewayAdmit: a
// link so large nothing is refused, the estimator with memory, sampled
// admission latency.
func servedGateway(cfg gateway.Config) (*gateway.Gateway, error) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		return nil, err
	}
	cfg.Controller = ctrl
	if cfg.Estimator == nil {
		cfg.Estimator = estimator.NewExponential(100)
	}
	cfg.Shards = 64
	cfg.LatencySample = 8
	return gateway.New(cfg)
}

// tracedBackend is the per-layer seam on the served workloads: a
// server.Backend that times every call into the real gateway. The op-id of
// a call is the connection or caller its first flow id names.
type tracedBackend struct {
	inner server.Backend
	tr    *tracer
	shift uint // flow id >> shift is the op-id
}

func (b *tracedBackend) AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error) {
	t0 := b.tr.now()
	out, err := b.inner.AdmitBatch(ids, rates, dst)
	b.tr.add(spGatewayAdmitBatch, uint32(ids[0]>>b.shift), t0, b.tr.now(), len(ids))
	return out, err
}

func (b *tracedBackend) DepartBatch(ids []uint64, dst []bool) []bool {
	t0 := b.tr.now()
	out := b.inner.DepartBatch(ids, dst)
	b.tr.add(spGatewayDepartBatch, uint32(ids[0]>>b.shift), t0, b.tr.now(), len(ids))
	return out
}

func (b *tracedBackend) UpdateRate(flow uint64, rate float64) error {
	t0 := b.tr.now()
	err := b.inner.UpdateRate(flow, rate)
	b.tr.add(spGatewayUpdateRate, uint32(flow>>b.shift), t0, b.tr.now(), 1)
	return err
}

func (b *tracedBackend) Touch(flow uint64) error {
	t0 := b.tr.now()
	err := b.inner.Touch(flow)
	b.tr.add(spGatewayTouch, uint32(flow>>b.shift), t0, b.tr.now(), 1)
	return err
}

// served is a listening server in front of one gateway.
type served struct {
	gw   *gateway.Gateway
	srv  *server.Server
	addr string
	done chan error
}

// serve starts a server for g on a loopback listener. With a tracer the
// gateway is reached through the timing decorator.
func serve(g *gateway.Gateway, tr *tracer, shift uint) (*served, error) {
	cfg := server.Config{Gateway: g}
	if tr != nil {
		cfg.Backend = &tracedBackend{inner: g, tr: tr, shift: shift}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{gw: g, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// layers fills the per-layer metrics both served workloads read off the
// server's and the gateway's own counters and the decorator's spans.
func (s *served) layers(t *tracedPass, out metricSet) {
	snap := s.srv.Snapshot()
	st := s.gw.Stats()
	var bytesRead, bytesWritten int64
	for _, sh := range snap.Shards {
		bytesRead += sh.BytesRead
		bytesWritten += sh.BytesWritten
	}
	out["server.mean_batch"] = snap.MeanBatch()
	out["server.bytes_read_per_frame"] = float64(bytesRead) / float64(snap.Frames)
	out["wire.bytes_per_decision"] = float64(bytesRead+bytesWritten) / float64(snap.Decisions)
	out["gateway.reject_share"] = float64(st.Rejected) / float64(st.Admitted+st.Rejected)
	out["gateway.admitbatch_ns_per_decision"] = t.agg[spGatewayAdmitBatch].perItem()
	out["gateway.departbatch_ns_per_flow"] = t.agg[spGatewayDepartBatch].perItem()
}

func (s *served) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-s.done
}

// burstConn is one raw protocol connection and its reply scratch.
type burstConn struct {
	nc  net.Conn
	rd  *wire.Reader
	req []byte
	f   wire.Frame
	db  wire.DecisionBurst
	ab  wire.AckBurst
}

// errAckEarly reports replies out of request order: an ack overtook a
// decision of the same round.
var errAckEarly = errors.New("depart ack arrived before the round's last decision")

// round writes the pre-encoded request and reads the 128 replies back the
// way the server reads requests: burst decoders over whatever is buffered,
// the generic Next only at burst boundaries. With a tracer it records the
// write and read halves as children of the round.
func (c *burstConn) round(tr *tracer, track uint32) error {
	var t0, t1 int64
	if tr != nil {
		t0 = tr.now()
	}
	if _, err := c.nc.Write(c.req); err != nil {
		return err
	}
	if tr != nil {
		t1 = tr.now()
		tr.add(spWrite, track, t0, t1, 2*perRound)
	}
	c.db.Reset()
	c.ab.Reset()
	for got := 0; got < 2*perRound; {
		if n := c.rd.NextDecisionBurst(&c.db, 2*perRound-got); n > 0 {
			got += n
			continue
		}
		if n := c.rd.NextAckBurst(&c.ab, 2*perRound-got); n > 0 {
			if c.db.Len() != perRound {
				return errAckEarly
			}
			got += n
			continue
		}
		if err := c.rd.Next(&c.f); err != nil {
			return err
		}
		switch c.f.Op { // a frame that straddled the read buffer's edge
		case wire.OpDecision:
			c.db.ReqIDs = append(c.db.ReqIDs, c.f.ReqID)
			c.db.Decisions = append(c.db.Decisions, c.f.Decision)
		case wire.OpAck:
			if c.db.Len() != perRound {
				return errAckEarly
			}
			c.ab.ReqIDs = append(c.ab.ReqIDs, c.f.ReqID)
			c.ab.Statuses = append(c.ab.Statuses, c.f.Status)
		default:
			return fmt.Errorf("unexpected %s frame in reply", c.f.Op)
		}
		got++
	}
	if tr != nil {
		t2 := tr.now()
		tr.add(spRead, track, t1, t2, 2*perRound)
		tr.add(spRound, track, t0, t2, perRound)
	}
	return nil
}

// check is the rest of the served-burst oracle for one round (round
// itself checks that decisions precede acks): replies in request order
// with matching request ids, every admit admitted, every depart
// acknowledged.
func (c *burstConn) check() error {
	if c.db.Len() != perRound || c.ab.Len() != perRound {
		return fmt.Errorf("got %d decisions and %d acks, want %d of each", c.db.Len(), c.ab.Len(), perRound)
	}
	for i := 0; i < perRound; i++ {
		if c.db.ReqIDs[i] != uint64(i+1) || c.ab.ReqIDs[i] != uint64(perRound+i+1) {
			return fmt.Errorf("reply %d out of order: decision id %d, ack id %d", i, c.db.ReqIDs[i], c.ab.ReqIDs[i])
		}
		if c.db.Decisions[i].Reason != uint8(gateway.ReasonAdmitted) {
			return fmt.Errorf("steady-state admit %d refused: reason %d", i, c.db.Decisions[i].Reason)
		}
		if c.ab.Statuses[i] != wire.StatusOK {
			return fmt.Errorf("depart %d not acknowledged: %s", i, c.ab.Statuses[i])
		}
	}
	return nil
}

type burstInstance struct {
	notes
	in    burstInputs
	s     *served
	conns []*burstConn
	tr    *tracer
}

func setupBurst(seed uint64, p int, tr *tracer) (instance, error) {
	in := genBurst(seed, p)
	g, err := servedGateway(gateway.Config{Capacity: 1e9})
	if err != nil {
		return nil, err
	}
	s, err := serve(g, tr, 32)
	if err != nil {
		return nil, err
	}
	b := &burstInstance{in: in, s: s, tr: tr}
	for c := 0; c < p; c++ {
		nc, err := net.Dial("tcp", s.addr)
		if err != nil {
			b.close()
			return nil, err
		}
		bc := &burstConn{nc: nc, rd: wire.NewReader(nc), req: in.reqs[c]}
		b.conns = append(b.conns, bc)
		// One checked round per connection: the server is up, the scratch
		// is warm, and the flow table is back at its steady state (empty).
		if err := bc.round(nil, 0); err != nil {
			b.close()
			return nil, err
		}
		if err := bc.check(); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func (b *burstInstance) drive(rec *recorder) {
	b.driveConns(rec, len(b.conns))
}

// driveConns loops rounds on the first n connections, one goroutine each.
func (b *burstInstance) driveConns(rec *recorder, n int) {
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			c := b.conns[d]
			c.nc.SetDeadline(time.Now().Add(10 * time.Minute))
			for !rec.stopped.Load() {
				t0 := time.Now()
				err := c.round(b.tr, uint32(d))
				if err == nil {
					err = c.check()
				}
				if err != nil {
					rec.fail(d, perRound)
					b.note("conn %d: %v", d, err)
					return // the stream is no longer aligned; stop this driver
				}
				rec.done(d, perRound, time.Since(t0))
			}
		}(d)
	}
	wg.Wait()
}

func (b *burstInstance) verify() []string {
	v := b.lines()
	st := b.s.gw.Stats()
	if !st.LifecycleBalanced() || st.Active != 0 {
		v = append(v, fmt.Sprintf("gateway not drained and balanced: %+v", st))
	}
	if st.Rejected != 0 {
		v = append(v, fmt.Sprintf("%d admits rejected on an unbounded link", st.Rejected))
	}
	if snap := b.s.srv.Snapshot(); snap.ProtocolErrors+snap.ConnsShed+snap.ConnsRefused != 0 {
		v = append(v, fmt.Sprintf("server refused work: %+v", snap))
	}
	return v
}

func (b *burstInstance) close() {
	for _, c := range b.conns {
		c.nc.Close()
	}
	if err := b.s.shutdown(); err != nil {
		b.note("shutdown: %v", err)
	}
}

// roundReader hands the same bytes out once per Read, the way a socket
// delivers one pipelined round, rounds times over.
type roundReader struct {
	round  []byte
	rounds int
}

func (r *roundReader) Read(p []byte) (int, error) {
	if r.rounds == 0 {
		return 0, io.EOF
	}
	r.rounds--
	return copy(p, r.round), nil
}

// burstDecodeCost replays the exact request bytes of connection 0 through
// the server's decode sequence — one blocking Next, then the Admit and
// Depart burst decoders over the buffered rest — and returns ns per Admit
// frame and per Depart frame.
func burstDecodeCost(req []byte, rounds int) (admitNs, departNs float64) {
	rd := wire.NewReader(&roundReader{round: req, rounds: rounds})
	var (
		f   wire.Frame
		ab  wire.AdmitBurst
		db  wire.DepartBurst
		adm time.Duration
		dep time.Duration
	)
	for i := 0; i < rounds; i++ {
		ab.Reset()
		db.Reset()
		t0 := time.Now()
		if err := rd.Next(&f); err != nil {
			return 0, 0
		}
		n := 1 + rd.NextAdmitBurst(&ab, 512)
		t1 := time.Now()
		m := rd.NextDepartBurst(&db, 512)
		t2 := time.Now()
		if n != perRound || m != perRound {
			return 0, 0
		}
		adm += t1.Sub(t0)
		dep += t2.Sub(t1)
	}
	frames := float64(rounds * perRound)
	return float64(adm) / frames, float64(dep) / frames
}

// burstReplyCost measures, on one round's recorded replies, what the
// server spends encoding them (AppendDecision/AppendAck, ns per frame) and
// what the harness spends burst-decoding them (ns per round).
func burstReplyCost(c *burstConn, rounds int) (encodeNs, harnessDecodeNs float64) {
	decs := append([]wire.Decision(nil), c.db.Decisions...)
	var buf []byte
	encodeNs = timeBatches(9, rounds, func(n int) {
		for r := 0; r < n; r++ {
			buf = buf[:0]
			for i, d := range decs {
				buf = wire.AppendDecision(buf, uint64(i+1), d)
			}
			for i := 0; i < perRound; i++ {
				buf = wire.AppendAck(buf, uint64(perRound+i+1), wire.StatusOK)
			}
		}
	}) / (2 * perRound)
	reply := append([]byte(nil), buf...)

	rd := wire.NewReader(&roundReader{round: reply, rounds: rounds})
	var (
		f  wire.Frame
		db wire.DecisionBurst
		ab wire.AckBurst
	)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		db.Reset()
		ab.Reset()
		for got := 0; got < 2*perRound; {
			if n := rd.NextDecisionBurst(&db, 2*perRound-got); n > 0 {
				got += n
			} else if n := rd.NextAckBurst(&ab, 2*perRound-got); n > 0 {
				got += n
			} else if err := rd.Next(&f); err != nil {
				return encodeNs, 0
			} else {
				got++
			}
		}
	}
	return encodeNs, float64(time.Since(t0)) / float64(rounds)
}

// burstLayers fills the per-layer metrics of served-burst and prints the
// decomposition of one single-connection round.
func burstLayers(t *tracedPass, out metricSet) {
	b := t.inst.(*burstInstance)
	b.s.layers(t, out)
	out["server.allocs_per_decision"] = float64(t.mallocs) / float64(t.ops)

	// The ledger pass: connection 0 alone, so every gateway span between a
	// round's start and end belongs to that round.
	b.tr.reset()
	rec := newRecorder(1)
	go func() {
		time.Sleep(t.ledgerDur)
		rec.stopped.Store(true)
	}()
	b.driveConns(rec, 1)
	spans := b.tr.spans()
	agg := aggregate(spans, parents(spans))

	const rounds = 20000
	admitNs, departNs := burstDecodeCost(b.in.reqs[0], rounds)
	encodeNs, harnessDecodeNs := burstReplyCost(b.conns[0], rounds)
	out["wire.decode_admit_ns_per_frame"] = admitNs
	out["wire.decode_depart_ns_per_frame"] = departNs
	out["wire.encode_reply_ns_per_frame"] = encodeNs

	round := agg[spRound].perCall()
	parts := []struct {
		name string
		ns   float64
	}{
		{"harness.write (nc.Write, syscall)", agg[spWrite].perCall()},
		{"wire.decode admit x64", admitNs * perRound},
		{"wire.decode depart x64", departNs * perRound},
		{"gateway.AdmitBatch", float64(agg[spGatewayAdmitBatch].Dur) / float64(agg[spRound].Calls)},
		{"gateway.DepartBatch", float64(agg[spGatewayDepartBatch].Dur) / float64(agg[spRound].Calls)},
		{"wire.encode reply x128", encodeNs * 2 * perRound},
		{"harness.decode replies x128", harnessDecodeNs},
	}
	residual := round
	for _, p := range parts {
		residual -= p.ns
	}
	out["server.residual_ns_per_decision"] = residual / perRound
	out["server.residual_share"] = residual / round
	out["harness.client_cpu_share"] = (parts[0].ns + harnessDecodeNs) / round

	fmt.Printf("\nserved-burst decomposition: one connection, %d traced rounds of %d admit + %d depart\n",
		agg[spRound].Calls, perRound, perRound)
	fmt.Printf("  %-36s %12s %14s %7s\n", "part", "ns/round", "ns/decision", "share")
	sum := 0.0
	for _, p := range parts {
		fmt.Printf("  %-36s %12.0f %14.1f %6.1f%%\n", p.name, p.ns, p.ns/perRound, 100*p.ns/round)
		sum += p.ns
	}
	fmt.Printf("  %-36s %12.0f %14.1f %6.1f%%\n", "residual", residual, residual/perRound, 100*residual/round)
	fmt.Printf("  %-36s %12.0f %14.1f %6.1f%%   check: parts + residual - round = %.3g ns\n",
		"round", round, round/perRound, 100.0, sum+residual-round)
}
