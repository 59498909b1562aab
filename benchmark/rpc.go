package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/wire"
)

const (
	callersPerConn = 8
	// rpcWindow is how many flows a caller keeps in flight: it admits flow
	// j, then walks the older ones through the rest of their lifecycle —
	// UpdateRate at age W/4 and W/2, Touch at 3W/4, Depart at W — one
	// blocking RPC at a time. Every flow sees Admit, UpdateRate x2, Touch,
	// Depart in that order.
	rpcWindow = 64
	// rpcPlanLen lifecycles are generated per caller and cycled.
	rpcPlanLen = 4096
	// rpcAdmitShare is the share of the callers' demand the link is sized
	// to carry. The callers together try to hold callers*rpcWindow flows;
	// the link fits this share of them, so the closed loop settles where
	// the rest — one admit in ten — is refused, whatever the core count.
	rpcAdmitShare = 0.9
)

// lifecycle is one flow's planned rates: declared at Admit, then the two
// UpdateRate reports.
type lifecycle struct{ r0, r1, r2 float64 }

// rpcInputs is what -seed decides for served-rpc: every caller's lifecycle
// plan, and through the rates' moments the capacity of the link.
type rpcInputs struct {
	plans    [][]lifecycle
	capacity float64
	target   float64 // flows the link is sized for
}

func genRPC(seed uint64, p int) (rpcInputs, error) {
	r := rand.New(rand.NewSource(int64(mix(seed, 2))))
	callers := p * callersPerConn
	in := rpcInputs{plans: make([][]lifecycle, callers)}
	var n, sum, sumSq float64
	for c := range in.plans {
		plan := make([]lifecycle, rpcPlanLen)
		for i := range plan {
			plan[i] = lifecycle{drawRate(r), drawRate(r), drawRate(r)}
			for _, x := range []float64{plan[i].r0, plan[i].r1, plan[i].r2} {
				n++
				sum += x
				sumSq += x * x
			}
		}
		in.plans[c] = plan
	}
	mu := sum / n
	sigma := math.Sqrt(sumSq/n - mu*mu)
	in.target = math.Round(rpcAdmitShare * float64(callers*rpcWindow))
	ctrl, err := core.NewCertaintyEquivalent(1e-2, mu, sigma)
	if err != nil {
		return in, err
	}
	in.capacity = capacityFor(ctrl, mu, sigma, in.target)
	return in, nil
}

// capacityFor finds by bisection the link capacity at which ctrl, shown
// the moments (mu, sigma), admits exactly target flows.
func capacityFor(ctrl core.Controller, mu, sigma, target float64) float64 {
	admissible := func(c float64) float64 {
		return ctrl.Admissible(core.Measurement{Capacity: c, Flows: int(target), AggregateRate: target * mu, Mu: mu, Sigma: sigma, OK: true})
	}
	lo, hi := 0.0, 4*target*(mu+sigma)+16
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if admissible(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func (in rpcInputs) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, plan := range in.plans {
		for _, l := range plan {
			put(l.r0)
			put(l.r1)
			put(l.r2)
		}
	}
	put(in.capacity)
	return h.Sum64()
}

func rpcFlow(caller int, seq uint64) uint64 { return uint64(caller)<<40 | seq }

type rpcInstance struct {
	notes
	in      rpcInputs
	s       *served
	cl      *client.Client
	stopRun context.CancelFunc
	runDone chan struct{}
	tr      *tracer
	callers int

	callerTime atomic.Int64 // ns the callers spent in their loops, summed
	rpcTime    atomic.Int64 // ns of that spent inside client calls
}

func setupRPC(seed uint64, p int, tr *tracer) (instance, error) {
	in, err := genRPC(seed, p)
	if err != nil {
		return nil, err
	}
	g, err := servedGateway(gateway.Config{
		Capacity:     in.capacity,
		Estimator:    estimator.NewExponential(1),
		TickInterval: 10 * time.Millisecond,
		// Virtual time is wall seconds under Run; a flow lives tens of
		// milliseconds, so the sweep runs every tick and reclaims nothing.
		FlowTTL: 30,
	})
	if err != nil {
		return nil, err
	}
	s, err := serve(g, tr, 40)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &rpcInstance{in: in, s: s, stopRun: cancel, runDone: make(chan struct{}), tr: tr, callers: len(in.plans)}
	go func() {
		g.Run(ctx)
		close(r.runDone)
	}()
	r.cl, err = client.New(client.Config{Addr: s.addr, Conns: p})
	if err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < p; i++ { // the pool dials lazily, round-robin: one Ping per connection
		if err := r.cl.Ping(context.Background()); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// rpcCaller is one blocking caller goroutine's state.
type rpcCaller struct {
	r        *rpcInstance
	rec      *recorder
	id       int
	admitted [rpcWindow]bool
	inRPC    time.Duration // time spent inside client calls
}

// record books one RPC that started at t0; ok says whether its outcome is
// the one the oracle expects.
func (c *rpcCaller) record(t0 time.Time, ok bool) {
	lat := time.Since(t0)
	c.inRPC += lat
	if tr := c.r.tr; tr != nil {
		end := tr.now()
		tr.add(spRPC, uint32(c.id), end-int64(lat), end, 1)
	}
	if !ok {
		c.rec.fail(c.id, 1)
		return
	}
	c.rec.done(c.id, 1, lat)
}

// expected checks the outcome of a post-admission RPC on the flow admitted
// at step seq: applied if the flow was admitted, ErrNotActive if refused.
func (c *rpcCaller) expected(seq uint64, op string, err error) bool {
	want := c.admitted[seq%rpcWindow]
	if want && err == nil || !want && errors.Is(err, client.ErrNotActive) {
		return true
	}
	c.r.note("caller %d: %s flow %d (admitted=%v): %v", c.id, op, seq, want, err)
	return false
}

// admit checks one admission decision against the per-decision invariants
// and remembers it for the flow's later RPCs.
func (c *rpcCaller) admit(seq uint64, d gateway.Decision, err error) bool {
	c.admitted[seq%rpcWindow] = false
	switch {
	case err != nil:
		c.r.note("caller %d: Admit flow %d: %v", c.id, seq, err)
	case d.Admitted && float64(d.Active) > math.Ceil(d.Admissible):
		c.r.note("caller %d: flow %d admitted past the bound: active %d > M %.2f", c.id, seq, d.Active, d.Admissible)
	case !d.Admitted && d.Reason != gateway.ReasonCapacity:
		c.r.note("caller %d: flow %d refused for %s", c.id, seq, d.Reason)
	default:
		c.admitted[seq%rpcWindow] = d.Admitted
		return true
	}
	return false
}

func (c *rpcCaller) depart(ctx context.Context, seq uint64) {
	t0 := time.Now()
	err := c.r.cl.Depart(ctx, rpcFlow(c.id, seq))
	c.record(t0, c.expected(seq, "Depart", err))
}

func (c *rpcCaller) loop() {
	ctx := context.Background()
	cl := c.r.cl
	plan := c.r.in.plans[c.id]
	var j uint64
	for ; !c.rec.stopped.Load(); j++ {
		l := plan[j%rpcPlanLen]
		if j >= rpcWindow {
			c.depart(ctx, j-rpcWindow)
		}
		t0 := time.Now()
		d, err := cl.Admit(ctx, rpcFlow(c.id, j), l.r0)
		c.record(t0, c.admit(j, d, err))
		if seq := j - rpcWindow/4; j >= rpcWindow/4 {
			t0 := time.Now()
			err := cl.UpdateRate(ctx, rpcFlow(c.id, seq), l.r1)
			c.record(t0, c.expected(seq, "UpdateRate", err))
		}
		if seq := j - rpcWindow/2; j >= rpcWindow/2 {
			t0 := time.Now()
			err := cl.UpdateRate(ctx, rpcFlow(c.id, seq), l.r2)
			c.record(t0, c.expected(seq, "UpdateRate", err))
		}
		if seq := j - 3*rpcWindow/4; j >= 3*rpcWindow/4 {
			t0 := time.Now()
			err := cl.Touch(ctx, rpcFlow(c.id, seq))
			c.record(t0, c.expected(seq, "Touch", err))
		}
	}
	// Drain: depart what is still in flight, so the gateway ends empty.
	for k := uint64(0); k < rpcWindow && k < j; k++ {
		c.depart(ctx, j-1-k)
	}
}

func (r *rpcInstance) drive(rec *recorder) {
	var wg sync.WaitGroup
	for id := 0; id < r.callers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t0 := time.Now()
			c := &rpcCaller{r: r, rec: rec, id: id}
			c.loop()
			r.callerTime.Add(int64(time.Since(t0)))
			r.rpcTime.Add(int64(c.inRPC))
		}(id)
	}
	wg.Wait()
}

func (r *rpcInstance) verify() []string {
	v := r.lines()
	st := r.s.gw.Stats()
	if !st.LifecycleBalanced() || st.Active != 0 {
		v = append(v, fmt.Sprintf("gateway not drained and balanced: %+v", st))
	}
	if st.Expired != 0 {
		v = append(v, fmt.Sprintf("%d live flows lost their lease", st.Expired))
	}
	// Only a run long enough to fill the windows has a reject share to check.
	if decided := st.Admitted + st.Rejected; decided > int64(20*r.callers*rpcWindow) {
		if share := float64(st.Rejected) / float64(decided); share < 0.05 || share > 0.15 {
			v = append(v, fmt.Sprintf("reject share %.3f outside [0.05, 0.15]: the link is sized for %.0f of %d flows", share, r.in.target, r.callers*rpcWindow))
		}
	}
	if snap := r.s.srv.Snapshot(); snap.ProtocolErrors+snap.ConnsShed+snap.ConnsRefused != 0 {
		v = append(v, fmt.Sprintf("server refused work: %+v", snap))
	}
	return v
}

func (r *rpcInstance) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	r.stopRun()
	<-r.runDone
	if err := r.s.shutdown(); err != nil {
		r.note("shutdown: %v", err)
	}
}

// stubServer answers every Admit with a canned admitted Decision echoing
// the request id, and nothing else: what is left of an RPC when the
// server and the gateway cost nothing.
func stubServer() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd := wire.NewReader(nc)
				var f wire.Frame
				var out []byte
				for rd.Next(&f) == nil {
					out = wire.AppendDecision(out[:0], f.ReqID, wire.Decision{Admissible: 1e9, Active: 1})
					if _, err := nc.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	stop = func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
	return ln.Addr().String(), stop, nil
}

// clientNullRTT measures client.Admit against the stub server from one
// caller: the median round trip in microseconds and the allocations per
// call.
func clientNullRTT(d time.Duration) (rttUs, allocs float64, err error) {
	addr, stop, err := stubServer()
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	cl, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 200; i++ { // dial and warm
		if _, err := cl.Admit(ctx, uint64(i), 1); err != nil {
			return 0, 0, err
		}
	}
	var lats []float64
	before := readHeap()
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := cl.Admit(ctx, 1, 1); err != nil {
			return 0, 0, err
		}
		lats = append(lats, float64(time.Since(t0)))
	}
	after := readHeap()
	return median(lats) / 1e3, float64(after.mallocs-before.mallocs) / float64(len(lats)), nil
}

// rpcWireCost replays caller 0's first steps as request bytes through the
// generic decoder, and the matching replies through the encoders; ns per
// frame each.
func rpcWireCost(in rpcInputs, steps int) (decodeNs, encodeNs float64) {
	var req []byte
	var id uint64
	frames := 0
	for j := uint64(rpcWindow); j < uint64(rpcWindow+steps); j++ {
		l := in.plans[0][j%rpcPlanLen]
		req = wire.AppendDepart(req, id+1, rpcFlow(0, j-rpcWindow))
		req = wire.AppendAdmit(req, id+2, rpcFlow(0, j), l.r0)
		req = wire.AppendUpdateRate(req, id+3, rpcFlow(0, j-rpcWindow/4), l.r1)
		req = wire.AppendUpdateRate(req, id+4, rpcFlow(0, j-rpcWindow/2), l.r2)
		req = wire.AppendTouch(req, id+5, rpcFlow(0, j-3*rpcWindow/4))
		id += 5
		frames += 5
	}
	var f wire.Frame
	decodeNs = timeBatches(9, frames, func(n int) {
		rd := wire.NewReader(bytes.NewReader(req))
		for i := 0; i < n; i++ {
			if err := rd.Next(&f); err != nil {
				return
			}
		}
	})
	var out []byte
	encodeNs = timeBatches(9, frames, func(n int) {
		for i := 0; i < n; i += 5 {
			out = wire.AppendAck(out[:0], uint64(i), wire.StatusOK)
			out = wire.AppendDecision(out, uint64(i+1), wire.Decision{Admissible: 920, Active: 900})
			out = wire.AppendAck(out, uint64(i+2), wire.StatusOK)
			out = wire.AppendAck(out, uint64(i+3), wire.StatusNotActive)
			out = wire.AppendAck(out, uint64(i+4), wire.StatusOK)
		}
	})
	return decodeNs, encodeNs
}

func rpcLayers(t *tracedPass, out metricSet) {
	r := t.inst.(*rpcInstance)
	r.s.layers(t, out)
	out["gateway.updaterate_ns"] = t.agg[spGatewayUpdateRate].perCall()
	out["gateway.touch_ns"] = t.agg[spGatewayTouch].perCall()
	out["gateway.admitbatch_p99_us_under_tick"] = t.agg[spGatewayAdmitBatch].p(0.99) / 1e3
	out["wire.decode_generic_ns_per_frame"], out["wire.encode_reply_ns_per_frame"] = rpcWireCost(r.in, 2000)

	rpcs := t.agg[spRPC]
	rtt, allocs, err := clientNullRTT(t.ledgerDur)
	if err != nil {
		r.note("null-rtt stub: %v", err)
	}
	out["client.null_rtt_us"] = rtt
	out["client.allocs_per_rpc"] = allocs
	out["client.self_share"] = rtt * 1e3 / rpcs.p(0.5)
	// t.mallocs covers the timed slices only; every op there is one RPC.
	out["server.allocs_per_decision"] = math.Max(0, float64(t.mallocs)-allocs*float64(t.ops)) / (float64(t.ops) / 5)
	out["harness.client_cpu_share"] = 1 - float64(r.rpcTime.Load())/float64(r.callerTime.Load())
}
