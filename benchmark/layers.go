package main

import (
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
)

// populated returns a gateway holding flows active flows on a link too
// large to refuse any.
func populated(flows int, ttl float64) (*gateway.Gateway, error) {
	g, err := servedGateway(gateway.Config{Capacity: 1e12, FlowTTL: ttl})
	if err != nil {
		return nil, err
	}
	const chunk = 512
	ids := make([]uint64, 0, chunk)
	rates := make([]float64, 0, chunk)
	var ds []gateway.Decision
	for next := 0; next < flows; {
		ids, rates = ids[:0], rates[:0]
		for ; len(ids) < chunk && next < flows; next++ {
			ids = append(ids, uint64(next))
			rates = append(rates, 0.5+float64(next%1000)/1000)
		}
		if ds, err = g.AdmitBatch(ids, rates, ds[:0]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// tickCost is the median of 50 Tick calls on a table of flows flows, in
// microseconds: one shard's exact recompute, the estimator, the bound.
func tickCost(flows int) float64 {
	g, err := populated(flows, 0)
	if err != nil {
		return 0
	}
	us := make([]float64, 50)
	for i := range us {
		t0 := time.Now()
		g.Tick(float64(i+1) * 0.01)
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// sweepCost is one Tick whose lease sweep finds every one of flows leases
// expired, in microseconds; the median of 5 tables.
func sweepCost(flows int) float64 {
	us := make([]float64, 5)
	for i := range us {
		g, err := populated(flows, 1)
		if err != nil {
			return 0
		}
		t0 := time.Now()
		st := g.Tick(2)
		us[i] = float64(time.Since(t0)) / 1e3
		if st.Expired != int64(flows) {
			return 0
		}
	}
	return median(us)
}

// tickLayers measures the measurement tick at scale and, by direct calls
// with a 100k-flow tick's inputs, the three things a tick computes.
func tickLayers(out metricSet) {
	out["gateway.tick_us_1k"] = tickCost(size.tickTables[0])
	out["gateway.tick_us_100k"] = tickCost(size.tickTables[1])
	out["gateway.tick_us_1m"] = tickCost(size.tickTables[2])
	out["gateway.tick_ttl_sweep_us_100k"] = sweepCost(size.sweepTable)

	const flows, mu, sigma = 100_000, 1.0, 0.3
	est := estimator.NewExponential(1)
	est.Reset(0)
	now := 0.0
	out["estimator.advance_update_ns"] = timeBatches(9, 20000, func(n int) {
		for i := 0; i < n; i++ {
			now += 0.01
			est.Advance(now)
			est.Update(flows*mu+float64(i%7), flows*(mu*mu+sigma*sigma), flows)
			est.Estimate()
		}
	})
	ctrl, err := core.NewCertaintyEquivalent(1e-2, mu, sigma)
	if err != nil {
		return
	}
	m := core.Measurement{Capacity: 1.05 * flows, Flows: flows, AggregateRate: flows * mu, Mu: mu, Sigma: sigma, OK: true}
	out["core.admissible_ns"] = timeBatches(9, 20000, func(n int) {
		for i := 0; i < n; i++ {
			m.Mu = mu + float64(i%7)*1e-6
			sink += ctrl.Admissible(m)
		}
	})
	tuner, err := adaptive.New(adaptive.Config{Capacity: 1.05 * flows, Th: churnHold, PQ: 1e-2})
	if err != nil {
		return
	}
	now = 0
	out["adaptive.observe_tick_ns"] = timeBatches(9, 20000, func(n int) {
		for i := 0; i < n; i++ {
			now += 0.01
			tuner.ObserveTick(now, flows*mu+float64((i*37)%17-8)*30, flows, mu, sigma, 1)
		}
	})
}
