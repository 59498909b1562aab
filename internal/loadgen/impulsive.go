package loadgen

import (
	"fmt"

	"repro/internal/gateway"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// ImpulsiveTick is the virtual time between the measurement ticks of an
// impulsive fill: one tick after every admission request.
const ImpulsiveTick = 1e-3

// ImpulsiveFill is one replication of the paper's impulsive-load experiment
// (Prop 3.1) on a live gateway: flows whose rates are drawn from model's
// marginal (substream i of r for flow i) request admission one by one, with
// a measurement tick after each, until the bound refuses one. It returns
// the admitted count M0; flows 0..M0-1 are left active in g.
func ImpulsiveFill(g *gateway.Gateway, model traffic.Model, r *rng.PCG) (int, error) {
	for i := 0; ; i++ {
		rate := model.New(r.Split(uint64(i))).Next().Rate
		d, err := g.Admit(uint64(i), rate)
		if err != nil {
			return 0, err
		}
		g.Tick(float64(i+1) * ImpulsiveTick)
		if !d.Admitted {
			return i, nil
		}
		if i > int(4*g.Capacity()) {
			return 0, fmt.Errorf("loadgen: impulsive fill did not terminate at capacity %g", g.Capacity())
		}
	}
}

// ImpulsiveRedraw takes a gateway ImpulsiveFill left holding admitted flows
// to the t ≫ T_c steady state of Prop 3.3: every flow redraws its rate
// (substream 2³²+j of r for flow j), so the load is independent of the
// fluctuation the admissions were decided on, and one tick far in the
// future measures it. The returned snapshot's AggregateRate is the redrawn
// load.
func ImpulsiveRedraw(g *gateway.Gateway, model traffic.Model, r *rng.PCG, admitted int) (gateway.Stats, error) {
	for j := 0; j < admitted; j++ {
		rate := model.New(r.Split(uint64(1)<<32 + uint64(j))).Next().Rate
		if err := g.UpdateRate(uint64(j), rate); err != nil {
			return gateway.Stats{}, err
		}
	}
	return g.Tick(1e6), nil
}
