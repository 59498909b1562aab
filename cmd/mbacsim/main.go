// Command mbacsim runs one continuous-load MBAC simulation from flags and
// prints the measured overflow probability, utilization and flow dynamics,
// next to the paper's analytical predictions for the same parameters.
//
// Example — the paper's Figure 5 setting at Tm = T~h:
//
//	mbacsim -n 100 -svr 0.3 -th 1000 -tc 1 -tm 100 -pce 1e-3 -time 1e6
//
// Controllers: certainty-equivalent (default), perfect-knowledge,
// peak-rate, measured-sum. Sources: rcbr (default), onoff, video.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	var (
		n       = flag.Float64("n", 100, "system size: capacity in units of the mean flow rate")
		svr     = flag.Float64("svr", 0.3, "sigma/mu of a flow")
		th      = flag.Float64("th", 1000, "mean flow holding time (0 = infinite)")
		tc      = flag.Float64("tc", 1, "traffic correlation time-scale")
		tm      = flag.Float64("tm", 0, "estimator memory window (0 = memoryless)")
		pce     = flag.Float64("pce", 1e-3, "certainty-equivalent target overflow probability")
		ctrl    = flag.String("controller", core.PolicyCertaintyEquivalent.String(), "admission policy: "+core.PolicyNames.List())
		source  = flag.String("source", "rcbr", "rcbr | onoff | video")
		seed    = flag.Uint64("seed", 1, "random seed")
		simTime = flag.Float64("time", 1e5, "measured simulation time")
		warmup  = flag.Float64("warmup", 0, "warm-up time (default: 20 max(Tc,Tm,T~h))")
		robust  = flag.Bool("robust", false, "override -tm and -pce with the paper's robust plan for target -pce")
		lambda  = flag.Float64("lambda", 0, "Poisson flow arrival rate (0 = infinite backlog, the paper's continuous load)")
		utility = flag.String("utility", "", "adaptive QoS utility: step | linear | concave | convex (empty disables)")
		series  = flag.String("series", "", "write a (t, M_t, N_t, load) trajectory CSV to this file")
		buffer  = flag.Float64("buffer", 0, "fluid buffer size for buffered-loss accounting (0 disables)")
	)
	flag.Parse()
	policy, err := core.PolicyNames.Parse("unknown controller", *ctrl)
	if err != nil {
		fatal(err)
	}

	var model traffic.Model
	switch *source {
	case "rcbr":
		model = traffic.NewRCBR(1, *svr, *tc)
	case "onoff":
		// Match mean 1 and the requested sigma/mu with peak chosen so that
		// pOn = 1/(1+svr^2).
		pOn := 1 / (1 + *svr**svr)
		peak := 1 / pOn
		model = traffic.OnOff{PeakRate: peak, OnTime: *tc * 2 * pOn, OffTime: *tc * 2 * (1 - pOn)}
	case "video":
		cfg := trace.DefaultVideoConfig()
		cfg.CV = *svr
		tr, err := trace.SyntheticVideo(cfg, rng.New(*seed, 0x747267))
		if err != nil {
			fatal(err)
		}
		model = trace.Model{Trace: tr}
	default:
		fatal(fmt.Errorf("unknown source %q", *source))
	}
	st := model.Stats()

	sys := theory.System{Capacity: *n, Mu: st.Mean, Sigma: st.StdDev(), Th: *th, Tc: *tc, Tm: *tm}
	if *robust {
		plan, err := theory.PlanRobust(sys, *pce, theory.InvertIntegral)
		if err != nil {
			fatal(err)
		}
		*tm = plan.MemoryTm
		sys.Tm = plan.MemoryTm
		fmt.Printf("robust plan: Tm = %.4g, pce = %.4g (target %.4g, predicted pf %.4g)\n",
			plan.MemoryTm, plan.AdjustedPce, *pce, plan.PredictedPf)
		*pce = plan.AdjustedPce
	}

	// The declared peak of an unbounded marginal is mean + 3 sigma.
	peak := st.Peak
	if math.IsInf(peak, 1) {
		peak = st.Mean + 3*st.StdDev()
	}
	controller, err := policy.New(core.Declared{Capacity: *n, Mean: st.Mean, Sigma: st.StdDev(), Peak: peak, Target: *pce, Eta: 0.9})
	if err != nil {
		fatal(err)
	}
	mode := estimator.ModeMemoryless
	if *tm > 0 {
		mode = estimator.ModeExponential
	}
	est, err := mode.New(*tm, 0, st.Mean, st.StdDev())
	if err != nil {
		fatal(err)
	}
	warmupSet := false // an explicit -warmup 0 means none
	flag.Visit(func(f *flag.Flag) { warmupSet = warmupSet || f.Name == "warmup" })
	if !warmupSet {
		*warmup = sim.Warmup(*tc, *tm, *th, *n)
	}

	var utilFn qos.Utility
	switch *utility {
	case "":
	case "step":
		utilFn = qos.Step(1)
	case "linear":
		utilFn = qos.Linear()
	case "concave":
		utilFn = qos.Concave(10)
	case "convex":
		utilFn = qos.Convex(4)
	default:
		fatal(fmt.Errorf("unknown utility %q", *utility))
	}

	e, err := sim.New(sim.Config{
		Capacity:        *n,
		Model:           model,
		Controller:      controller,
		Estimator:       est,
		HoldingTime:     *th,
		Seed:            *seed,
		Warmup:          *warmup,
		MaxTime:         *simTime,
		Tc:              *tc,
		Tm:              *tm,
		TargetP:         *pce,
		TrackAdmissible: true,
		ArrivalRate:     *lambda,
		Utility:         utilFn,
		BufferSize:      *buffer,
		SeriesPeriod:    seriesPeriod(*series, *simTime),
	})
	if err != nil {
		fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("parameters: n=%g svr=%.3g Th=%g (T~h=%.4g) Tc=%g Tm=%g pce=%.4g controller=%s source=%s\n",
		*n, st.StdDev()/st.Mean, *th, sys.ThTilde(), *tc, *tm, *pce, controller.Name(), *source)
	fmt.Printf("simulated:  %.4g time units, %d events, %d admitted, %d departed\n",
		res.SimTime, res.Events, res.Admitted, res.Departed)
	fmt.Printf("overflow:   time-weighted %.4g (±%.2g), point-sampled %.4g (%d/%d), gaussian-extrapolated %.4g\n",
		res.OverflowTimeFraction, res.OverflowHalfWidth, res.OverflowPointSample,
		res.OverflowHits, res.Samples, res.OverflowGaussian)
	fmt.Printf("selected:   pf = %.4g (resolved=%v)\n", res.Pf, res.Resolved)
	fmt.Printf("dynamics:   mean flows %.4g, mean admissible M_t %.4g (sd %.3g), utilization %.4g\n",
		res.MeanFlows, res.MeanAdmissible, res.StdAdmissible, res.Utilization)
	fmt.Printf("rcbr:       %d rate-increase requests, %d failed (p = %.4g)\n",
		res.RenegRequests, res.RenegFailures, res.RenegFailureProb)
	if *lambda > 0 {
		fmt.Printf("calls:      %d arrivals, %d blocked (blocking prob %.4g)\n",
			res.Arrivals, res.Blocked, res.BlockingProb)
	}
	if utilFn != nil {
		fmt.Printf("utility:    mean %.6g (%s)\n", res.MeanUtility, *utility)
	}
	if *buffer > 0 {
		fmt.Printf("buffer:     size %g, loss fraction %.4g, mean delay %.4g, busy %.4g\n",
			*buffer, res.Buffer.LossFraction, res.Buffer.MeanDelay, res.Buffer.BusyFraction)
	}
	if *series != "" {
		if err := writeSeries(*series, res.Series); err != nil {
			fatal(err)
		}
		fmt.Printf("series:     %d points written to %s\n", len(res.Series), *series)
	}
	if policy == core.PolicyCertaintyEquivalent && *th > 0 {
		fmt.Printf("theory:     eq37 integral %.4g, eq38 closed-form %.4g, impulsive sqrt2-law %.4g\n",
			theory.ContinuousOverflowIntegral(sys, *pce),
			theory.ContinuousOverflowClosedForm(sys, *pce),
			theory.ImpulsiveOverflow(*pce))
	}
}

// seriesPeriod picks a sampling period yielding ~2000 trajectory points
// when series output is requested, 0 (disabled) otherwise.
func seriesPeriod(path string, simTime float64) float64 {
	if path == "" {
		return 0
	}
	return simTime / 2000
}

// writeSeries dumps the trajectory as CSV.
func writeSeries(path string, pts []sim.SeriesPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "t,admissible,flows,load"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(f, "%g,%g,%d,%g\n", p.T, p.Admissible, p.Flows, p.Load); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbacsim:", err)
	os.Exit(1)
}
