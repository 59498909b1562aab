package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/loadgen"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// flashCrowd is the in-process flash-crowd scenario (scenarios/flash-crowd.json
// at the commit that defined the benchmark). It is a copy on purpose: a
// workload's inputs belong to the benchmark, which a change that claims a
// gain may not edit, and scenarios/ is a directory such a change may edit.
// Seeds are replaced per cycle.
const flashCrowd = `{
  "name": "flash-crowd",
  "title": "Admission control holds the overflow line through a 6x flash crowd",
  "hypothesis_text": "A 6x arrival surge over a third of the run does not push the windowed overflow probability significantly above the sqrt2-law level.",
  "seeds": [41],
  "target": "in-process",
  "expect": "Confirmed",
  "workload": {"kind": "churn", "lambda": 1, "hold": 10, "duration": 120, "tick": 0.5, "svr": 0.3, "tc": 1,
    "crowd": {"factor": 6, "from": 40, "to": 80}},
  "gateway": {"capacity": 25, "pq": 0.01, "estimator": "memoryless"},
  "arms": [{"name": "ce-crowd", "policy": "certainty-equivalent"}],
  "check": {"kind": "interval", "interval": {"reference": "sqrt2-law", "mode": "at-most", "z": 1.96}}
}`

//go:embed expected/seed1.json
var expectedSeed1 []byte

// cycleStats is the simulated statistics of one offline cycle: what the
// research path computed, which must not depend on how fast it ran.
type cycleStats struct {
	M0Mean       float64 `json:"m0_mean"`       // impulsive: mean admitted count
	OverflowHits int64   `json:"overflow_hits"` // impulsive: overflow indicators over the probe grid
	ChurnEvents  int64   `json:"churn_events"`  // churn engine: Result.Events
	ChurnPf      float64 `json:"churn_pf"`      // churn engine: Result.Pf
	RCBREvents   int64   `json:"rcbr_events"`   // RCBR engine: Result.Events
	RCBRPf       float64 `json:"rcbr_pf"`       // RCBR engine: Result.Pf
	ReportHash   uint64  `json:"report_hash"`   // FNV-64a of the scenario's FINDINGS report
}

// offlineSizes fixes the four jobs of a cycle. They are the repo's own
// benchmark configurations cut to about a millisecond each, so a slice
// holds on the order of a thousand cycles.
const (
	impulsiveReps = 20
	churnMaxTime  = 12
	rcbrMaxTime   = 30
)

type offlineInstance struct {
	notes
	seed  uint64
	tr    *tracer
	cfg   *scenario.Config
	model traffic.RCBR
}

// cycleSeed derives job j's seed in cycle k from -seed.
func cycleSeed(seed uint64, k int64, j uint64) uint64 { return mix(mix(seed, 4+j), uint64(k)) }

// offlineHash is the input hash of offline-suite: the seeds of the first
// cycles' jobs, which are all -seed decides.
func offlineHash(seed uint64) uint64 {
	h := fnv.New64a()
	for k := int64(0); k < 64; k++ {
		for j := uint64(0); j < 4; j++ {
			fmt.Fprintf(h, "%d,", cycleSeed(seed, k, j))
		}
	}
	return h.Sum64()
}

func newOffline(seed uint64, tr *tracer) (*offlineInstance, error) {
	cfg, err := scenario.Parse([]byte(flashCrowd))
	if err != nil {
		return nil, err
	}
	return &offlineInstance{seed: seed, tr: tr, cfg: cfg, model: traffic.NewRCBR(1, 0.3, 1)}, nil
}

// offlineCycle0 computes cycle 0's statistics for seed.
func offlineCycle0(seed uint64) (cycleStats, error) {
	o, err := newOffline(seed, nil)
	if err != nil {
		return cycleStats{}, err
	}
	return o.cycle(0, nil)
}

func setupOffline(seed uint64, _ int, tr *tracer) (instance, error) {
	o, err := newOffline(seed, tr)
	if err != nil {
		return nil, err
	}
	// Cycle 0 runs here, unrecorded: it warms the pools, and for -seed 1 it
	// is compared with the committed statistics.
	st, err := o.cycle(0, nil)
	if err != nil {
		return nil, err
	}
	if seed == 1 {
		var want cycleStats
		if err := json.Unmarshal(expectedSeed1, &want); err != nil {
			return nil, fmt.Errorf("expected/seed1.json: %w", err)
		}
		if st != want {
			return nil, fmt.Errorf("seed 1 cycle 0 computed %+v, expected/seed1.json holds %+v", st, want)
		}
	}
	return o, nil
}

// cycle runs the four jobs with cycle k's seeds and checks their results.
func (o *offlineInstance) cycle(k int64, tr *tracer) (cycleStats, error) {
	var st cycleStats
	var t0 int64
	begin := func() {
		if tr != nil {
			t0 = tr.now()
		}
	}
	end := func(name spanName, count int64) {
		if tr != nil {
			tr.add(name, uint32(k), t0, tr.now(), int(count))
		}
	}
	var cycleStart int64
	if tr != nil {
		cycleStart = tr.now()
	}

	begin()
	ce, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		return st, err
	}
	imp, err := sim.RunImpulsive(sim.ImpulsiveConfig{
		Capacity: 100, Model: o.model, Controller: ce, MeasureCount: 100, HoldingTime: 100,
		Grid: []float64{1, 10, 50}, Replications: impulsiveReps, Seed: cycleSeed(o.seed, k, 0),
	})
	if err != nil {
		return st, fmt.Errorf("RunImpulsive: %w", err)
	}
	end(spSimImpulsive, impulsiveReps)
	st.M0Mean = imp.M0.Mean()
	for i := range imp.PfAt {
		st.OverflowHits += imp.PfAt[i].Hits()
	}

	begin()
	pk, err := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	if err != nil {
		return st, err
	}
	eng, err := sim.New(sim.Config{
		Capacity: 100, Model: traffic.NewRCBR(1, 0.3, 50), Controller: pk, Estimator: estimator.NewMemoryless(),
		HoldingTime: 2, ArrivalRate: 60, Seed: cycleSeed(o.seed, k, 1), Warmup: 5, MaxTime: churnMaxTime, Tc: 50,
	})
	if err != nil {
		return st, err
	}
	churn, err := eng.Run()
	if err != nil {
		return st, fmt.Errorf("churn engine: %w", err)
	}
	end(spSimEngineChurn, churn.Events)
	st.ChurnEvents, st.ChurnPf = churn.Events, churn.Pf

	begin()
	eng, err = sim.New(sim.Config{
		Capacity: 100, Model: o.model, Controller: ce, Estimator: estimator.NewExponential(10),
		HoldingTime: 100, Seed: cycleSeed(o.seed, k, 2), Warmup: 10, MaxTime: rcbrMaxTime, Tc: 1, Tm: 10,
	})
	if err != nil {
		return st, err
	}
	rcbr, err := eng.Run()
	if err != nil {
		return st, fmt.Errorf("rcbr engine: %w", err)
	}
	end(spSimEngineRCBR, rcbr.Events)
	st.RCBREvents, st.RCBRPf = rcbr.Events, rcbr.Pf

	begin()
	o.cfg.Seeds = []uint64{cycleSeed(o.seed, k, 3)}
	res, err := scenario.Run(context.Background(), o.cfg)
	if err != nil {
		return st, fmt.Errorf("scenario: %w", err)
	}
	end(spScenarioRun, 1)
	h := fnv.New64a()
	h.Write([]byte(res.Markdown()))
	st.ReportHash = h.Sum64()
	if tr != nil {
		tr.add(spCycle, uint32(k), cycleStart, tr.now(), 1)
	}

	switch {
	case !res.Matched():
		return st, fmt.Errorf("scenario graded %s, config expects %s: %v", res.Verdict, o.cfg.Expect, res.Notes)
	case !res.Cells[0].Stats.LifecycleBalanced():
		return st, fmt.Errorf("scenario gateway unbalanced: %+v", res.Cells[0].Stats)
	case !(st.M0Mean > 0) || imp.M0.N() != impulsiveReps:
		return st, fmt.Errorf("impulsive ensemble: M0 mean %v over %d replications", st.M0Mean, imp.M0.N())
	case churn.Events <= 0 || rcbr.Events <= 0:
		return st, fmt.Errorf("an engine processed no events: churn %d, rcbr %d", churn.Events, rcbr.Events)
	case !unit(churn.Pf) || !unit(rcbr.Pf):
		return st, fmt.Errorf("overflow probability outside [0, 1]: churn %v, rcbr %v", churn.Pf, rcbr.Pf)
	}
	return st, nil
}

func unit(p float64) bool { return p >= 0 && p <= 1 && !math.IsNaN(p) }

func (o *offlineInstance) drive(rec *recorder) {
	for k := int64(1); !rec.stopped.Load(); k++ {
		t0 := time.Now()
		if _, err := o.cycle(k, o.tr); err != nil {
			rec.fail(0, 1)
			o.note("cycle %d: %v", k, err)
			continue
		}
		rec.done(0, 1, time.Since(t0))
	}
}

func (o *offlineInstance) verify() []string { return o.lines() }
func (o *offlineInstance) close()           {}

func offlineLayers(t *tracedPass, out metricSet) {
	o := t.inst.(*offlineInstance)
	a := t.agg
	out["sim.impulsive_us_per_rep"] = a[spSimImpulsive].perItem() / 1e3
	out["sim.engine_churn_ns_per_event"] = a[spSimEngineChurn].perItem()
	out["sim.engine_rcbr_ns_per_event"] = a[spSimEngineRCBR].perItem()
	out["scenario.run_ms"] = a[spScenarioRun].perCall() / 1e6
	out["sim.allocs_per_cycle"] = float64(t.mallocs) / float64(t.ops)
	if a[spCycle].Dur > 0 {
		out["harness.client_cpu_share"] = float64(a[spCycle].Self) / float64(a[spCycle].Dur)
	}

	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: 1e-2})
	if err != nil {
		o.note("%v", err)
		return
	}
	out["qos.audit_us"] = timeBatches(9, 50, func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < 1024; j++ {
				audit.ObserveWith(j%97 == 0, false)
			}
			audit.Report()
		}
	}) / 1e3
	src := o.model.New(rng.New(mix(o.seed, 8), 1))
	out["traffic.rcbr_next_ns"] = timeBatches(9, 100000, func(n int) {
		for i := 0; i < n; i++ {
			sink += src.Next().Rate
		}
	})
	p := rng.New(mix(o.seed, 9), 2)
	out["rng.normal_ns"] = timeBatches(9, 100000, func(n int) {
		for i := 0; i < n; i++ {
			sink += p.Normal()
		}
	})

	// The scenario's own schedule shape, an order of magnitude longer so
	// one call is long enough to time.
	cfg := loadgen.Config{Seed: mix(o.seed, 10), Lambda: 10, Hold: 10, SVR: 0.3, TC: 1, Duration: 1200,
		Crowd: loadgen.Crowd{Factor: 6, From: 400, To: 800}}
	var events []loadgen.Event
	out["loadgen.schedule_ns_per_event"] = timeBatches(5, 1, func(int) {
		events, _ = loadgen.Schedule(cfg)
	}) / math.Max(1, float64(len(events)))
	out["loadgen.replay_ns_per_event"] = replayCost(events)
}
