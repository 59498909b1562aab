// Package adaptive implements the online time-scale controller of the
// paper's Section 7 future work: tune the measurement memory T_m to the
// traffic actually observed, instead of configuring it offline.
//
// The controller consumes one aggregate-rate sample per measurement tick
// and maintains two online estimates:
//
//   - T̂_c, the traffic correlation time-scale, from a streaming empirical
//     ACF of the aggregate rate (stats.ACFRing, O(maxLag) per sample):
//     blocks of Block samples are reduced to an integral correlation time
//     and blended with exponential smoothing; and
//   - T̃_h = T_h/√n, the critical (repair) time-scale, from the observed
//     system size n = c/μ̂.
//
// Section 5.3 shows T_m ≈ T̃_h is the robust memory choice: with it the
// system sits in the masking regime whenever T_c ≪ T̃_h (p_f ≈
// (σα_q/μ + 1)·p_q, eq. 41) and in the benign repair regime whenever
// T_c ≫ T̃_h. The controller therefore steers T_m toward T̃_h, clamped to
// [Th/1000, Th] — but only through a hysteresis dead band (no retune while
// T_m is within hysteresis·target of the target) and a per-tick
// rate-of-change clamp (maxStep), so the published admission bound never
// jumps discontinuously. The regime classifier and its predicted p_f for each
// regime feed the QoS audit and the /adaptive observability route.
package adaptive

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Config parameterizes a Controller. Capacity, Th and PQ are required;
// every other field has a documented default.
type Config struct {
	// Capacity is the link capacity c, used to size n = c/μ̂.
	Capacity float64
	// Th is the mean flow holding time T_h; the retune target is
	// T̃_h = Th/√n.
	Th float64
	// PQ is the QoS target p_q the gateway runs at, used for the regime
	// p_f predictions.
	PQ float64
	// MaxLag is the number of ACF lags tracked per block (default 64).
	MaxLag int
	// Block is the number of aggregate samples reduced into one T̂_c
	// estimate (default 4·MaxLag; must exceed MaxLag).
	Block int
}

const (
	// smoothing is the EWMA weight given to each new block's T̂_c.
	smoothing = 0.5
	// hysteresis is the relative dead band around the target: no retune
	// while |T_m − target| ≤ hysteresis·target.
	hysteresis = 0.1
	// maxStep is the largest relative change of T_m per tick: one retune
	// moves T_m by at most a factor (1 + maxStep).
	maxStep = 0.05
)

func (c Config) withDefaults() Config {
	if c.MaxLag <= 0 {
		c.MaxLag = 64
	}
	if c.Block <= 0 {
		c.Block = 4 * c.MaxLag
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Capacity <= 0 || math.IsInf(c.Capacity, 0) || math.IsNaN(c.Capacity):
		return fmt.Errorf("adaptive: capacity %g must be positive and finite", c.Capacity)
	case c.Th <= 0 || math.IsInf(c.Th, 0) || math.IsNaN(c.Th):
		return fmt.Errorf("adaptive: Th %g must be positive and finite", c.Th)
	case !(c.PQ > 0 && c.PQ < 1):
		return fmt.Errorf("adaptive: pq %g must be in (0, 1)", c.PQ)
	case c.Block <= c.MaxLag:
		return fmt.Errorf("adaptive: block %d must exceed maxLag %d", c.Block, c.MaxLag)
	}
	return nil
}

// Controller is the online time-scale controller. It implements the
// gateway's Tuner seam: the gateway calls ObserveTick once per measurement
// tick under its measurement lock, and HTTP observability goroutines call
// Snapshot concurrently, so the controller carries its own mutex.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	ring *stats.ACFRing // aggregate samples of the current block

	// Tick spacing within the current block, for converting the ACF lag
	// axis into time units.
	lastT    float64
	haveLast bool
	dtSum    float64
	dtN      int

	tcHat  float64 // smoothed correlation-time estimate (0 before first block)
	target float64 // last computed clamped T̃_h target
	tm     float64 // memory as of the last ObserveTick

	lastMu    float64 // last per-flow mean estimate seen
	lastSigma float64 // last per-flow stddev estimate seen

	samples int64
	blocks  int64
	retunes int64
}

// New validates cfg, applies defaults and returns a Controller.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, ring: stats.NewACFRing(cfg.MaxLag)}, nil
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// ObserveTick feeds one measurement tick: the tick time, the instantaneous
// aggregate rate, the flow count, and the estimator's current per-flow
// estimates and memory. It returns the memory the estimator should use
// from the next tick on, with retune true when that differs from tm. It
// implements the gateway.Tuner seam.
func (c *Controller) ObserveTick(now, aggregate float64, flows int, mu, sigma, tm float64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.samples++
	c.tm = tm
	if mu > 0 && !math.IsInf(mu, 0) && !math.IsNaN(mu) {
		c.lastMu = mu
	}
	// sigma must be strictly positive: drained or faulted ticks report
	// (0, 0) and must not erase the last usable fluctuation measurement,
	// or an end-of-run snapshot loses its regime classification.
	if sigma > 0 && !math.IsInf(sigma, 0) && !math.IsNaN(sigma) {
		c.lastSigma = sigma
	}

	// Accumulate the aggregate into the current ACF block, tracking the
	// mean tick spacing so lags convert to time units.
	if c.haveLast && now > c.lastT && !math.IsInf(now, 0) {
		c.dtSum += now - c.lastT
		c.dtN++
	}
	if !math.IsNaN(now) && !math.IsInf(now, 0) {
		c.lastT = now
		c.haveLast = true
	}
	c.ring.Add(aggregate)
	if c.ring.N() >= c.cfg.Block && c.dtN > 0 {
		dt := c.dtSum / float64(c.dtN)
		tc := c.ring.CorrTime(dt)
		c.blocks++
		if tc > 0 {
			if c.tcHat == 0 {
				c.tcHat = tc
			} else {
				c.tcHat = (1-smoothing)*c.tcHat + smoothing*tc
			}
		}
		c.ring.Reset()
		c.dtSum, c.dtN = 0, 0
	}

	// Retune toward the critical time-scale T̃_h = Th/√(c/μ̂), clamped to
	// [Th/1000, Th].
	if !(c.lastMu > 0) {
		return tm, false // no measured mean yet: nothing to target
	}
	minMem, maxMem := c.cfg.Th/1000, c.cfg.Th
	target := c.cfg.Th / math.Sqrt(c.cfg.Capacity/c.lastMu)
	target = clamp(target, minMem, maxMem)
	c.target = target

	if math.Abs(tm-target) <= hysteresis*target {
		return tm, false // inside the dead band
	}
	// Rate-of-change clamp: approach the target geometrically, at most a
	// factor (1 + maxStep) per tick. A memoryless start (tm = 0) has no
	// scale to grow from, so it enters at the memory floor.
	lo, hi := tm/(1+maxStep), tm*(1+maxStep)
	if tm < minMem {
		hi = minMem
	}
	next := clamp(clamp(target, lo, hi), minMem, maxMem)
	if next == tm || !(next > 0) {
		return tm, false
	}
	c.tm = next
	c.retunes++
	return next, true
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Snapshot is the controller's observability view: the current memory and
// its target, the time-scale estimates, the Section 5.3 regime
// classification with the predicted overflow probability of each regime,
// and the control-loop counters. It is JSON-encodable (the /adaptive HTTP
// payload) and convertible to Prometheus text via WritePrometheus.
type Snapshot struct {
	Tm        float64 `json:"tm"`         // current estimator memory T_m
	Target    float64 `json:"target"`     // clamped T̃_h the controller steers toward
	TcHat     float64 `json:"tc_hat"`     // smoothed correlation-time estimate T̂_c
	Regime    string  `json:"regime"`     // masking | repair | intermediate
	PfMasking float64 `json:"pf_masking"` // eq. 41 prediction at p_q
	PfRepair  float64 `json:"pf_repair"`  // repair-regime prediction at p_q
	Retunes   int64   `json:"retunes"`    // SetMemory applications
	Blocks    int64   `json:"blocks"`     // completed ACF blocks
	Samples   int64   `json:"samples"`    // aggregate samples absorbed
}

// Snapshot assembles the observability snapshot. Before the first
// completed ACF block (or while no per-flow estimates have been seen) the
// regime is reported as intermediate with zero p_f predictions: the
// classifier refuses to extrapolate from time-scales it has not measured.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Tm:      c.tm,
		Target:  c.target,
		TcHat:   c.tcHat,
		Regime:  theory.RegimeIntermediate.String(),
		Retunes: c.retunes,
		Blocks:  c.blocks,
		Samples: c.samples,
	}
	if c.tcHat > 0 && c.lastMu > 0 && c.lastSigma > 0 {
		sys := theory.System{
			Capacity: c.cfg.Capacity,
			Mu:       c.lastMu,
			Sigma:    c.lastSigma,
			Th:       c.cfg.Th,
			Tc:       c.tcHat,
			Tm:       c.tm,
		}
		s.Regime = theory.ClassifyRegime(sys).String()
		s.PfMasking = theory.MaskingOverflow(sys, c.cfg.PQ)
		s.PfRepair = theory.RepairOverflow(sys, c.cfg.PQ)
	}
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the mbac_adaptive_* namespace.
func (s Snapshot) WritePrometheus(w io.Writer) {
	metrics.WriteGauge(w, "mbac_adaptive_memory", "current estimator memory T_m", s.Tm)
	metrics.WriteGauge(w, "mbac_adaptive_target", "clamped critical time-scale target Th/sqrt(n)", s.Target)
	metrics.WriteGauge(w, "mbac_adaptive_tc_hat", "smoothed correlation-time estimate", s.TcHat)
	metrics.WriteGauge(w, "mbac_adaptive_pf_masking", "predicted masking-regime overflow probability (eq. 41)", s.PfMasking)
	metrics.WriteGauge(w, "mbac_adaptive_pf_repair", "predicted repair-regime overflow probability", s.PfRepair)
	writeRegime(w, s.Regime, "")
	metrics.WriteCounter(w, "mbac_adaptive_retunes_total", "memory retunes applied", s.Retunes)
	metrics.WriteCounter(w, "mbac_adaptive_blocks_total", "completed ACF estimation blocks", s.Blocks)
	metrics.WriteCounter(w, "mbac_adaptive_samples_total", "aggregate samples absorbed", s.Samples)
}

// WriteFleetPrometheus renders one snapshot per cluster instance, each
// family labelled by instance index (the mbac_cluster_instance_* idiom).
func WriteFleetPrometheus(w io.Writer, snaps []Snapshot) {
	writeInstanceGauge(w, "mbac_adaptive_instance_memory", "current estimator memory T_m per instance", snaps,
		func(s Snapshot) float64 { return s.Tm })
	writeInstanceGauge(w, "mbac_adaptive_instance_target", "clamped critical time-scale target per instance", snaps,
		func(s Snapshot) float64 { return s.Target })
	writeInstanceGauge(w, "mbac_adaptive_instance_tc_hat", "smoothed correlation-time estimate per instance", snaps,
		func(s Snapshot) float64 { return s.TcHat })
	writeInstanceGauge(w, "mbac_adaptive_instance_retunes_total", "memory retunes applied per instance", snaps,
		func(s Snapshot) float64 { return float64(s.Retunes) })
}

func writeRegime(w io.Writer, regime, instance string) {
	const name = "mbac_adaptive_regime"
	fmt.Fprintf(w, "# HELP %s 1 for the active Section 5.3 operating regime\n# TYPE %s gauge\n", name, name)
	for _, r := range theory.RegimeNames.All() {
		v := 0
		if r.String() == regime {
			v = 1
		}
		if instance != "" {
			fmt.Fprintf(w, "%s{instance=%q,regime=%q} %d\n", name, instance, r.String(), v)
		} else {
			fmt.Fprintf(w, "%s{regime=%q} %d\n", name, r.String(), v)
		}
	}
}

func writeInstanceGauge(w io.Writer, name, help string, snaps []Snapshot, v func(Snapshot) float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for i, s := range snaps {
		fmt.Fprintf(w, "%s{instance=\"%d\"} %g\n", name, i, v(s))
	}
}
