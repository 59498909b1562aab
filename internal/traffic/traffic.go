// Package traffic implements the stochastic flow models used throughout
// the paper's evaluation. Every model produces a piecewise-constant rate
// process — the Renegotiated Constant Bit Rate (RCBR) abstraction of
// Grossglauser, Keshav & Tse — delivered as a sequence of (rate, duration)
// segments.
//
// The paper's simulations (Section 5.2) use independent homogeneous RCBR
// sources whose marginal rate distribution is Gaussian with sigma/mu = 0.3
// and whose segment lengths are i.i.d. exponential with mean T_c, so that
// the rate autocorrelation is exactly rho(t) = exp(-|t|/T_c) (eq. 31).
// Additional models (Markov-modulated fluid, on-off, trace-driven) exercise
// the same admission-control code path with different burst structure.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/gauss"
	"repro/internal/rng"
)

// Segment is one constant-rate epoch of a flow.
type Segment struct {
	Rate     float64 // bandwidth during the segment
	Duration float64 // length of the segment
}

// Stats describes the stationary marginal of a source model.
type Stats struct {
	Mean     float64 // stationary mean rate (mu)
	Variance float64 // stationary rate variance (sigma^2)
	CorrTime float64 // correlation time-scale T_c (integral scale), 0 if unknown
	Peak     float64 // peak (maximum) rate, +Inf if unbounded
}

// StdDev returns sqrt(Variance).
func (s Stats) StdDev() float64 { return math.Sqrt(s.Variance) }

// Source generates the successive constant-rate segments of one flow.
// Implementations are not safe for concurrent use; each simulated flow owns
// its source.
type Source interface {
	// Next returns the next constant-rate segment.
	Next() Segment
}

// Model is a factory for statistically identical, independent sources. The
// simulator derives one source per admitted flow from the model, feeding
// each a dedicated RNG substream so that experiments are reproducible and
// flows are independent.
type Model interface {
	// New returns a fresh source drawing randomness from r.
	New(r *rng.PCG) Source
	// Stats returns the stationary statistics of the model.
	Stats() Stats
}

// NewSource returns a source for a new flow of m drawing from r. When m is
// an RCBR and old (the previous flow's source in the caller's slot) is
// non-nil, old is renewed in place, so Monte Carlo ensembles and schedule
// generators recycle one allocation per slot; otherwise it is m.New(r).
// Either way the segments and draws are those of m.New(r).
func NewSource(m Model, old Source, r *rng.PCG) Source {
	if rc, ok := m.(RCBR); ok && old != nil {
		return rc.renew(old, r)
	}
	return m.New(r)
}

// ---------------------------------------------------------------------------
// RCBR: the paper's workload.

// RCBR is the paper's renegotiated-CBR source model: at renewal epochs of a
// Poisson process with rate 1/CorrTime the flow redraws its rate from a
// Gaussian N(Mean, Sigma^2) truncated to non-negative values.
type RCBR struct {
	Mean     float64 // marginal mean mu
	Sigma    float64 // marginal standard deviation sigma
	CorrTime float64 // mean segment length T_c
}

// NewRCBR returns the paper's default source: mean rate mu, sigma/mu ratio
// svr (0.3 in the paper) and correlation time tc.
func NewRCBR(mu, svr, tc float64) RCBR {
	return RCBR{Mean: mu, Sigma: svr * mu, CorrTime: tc}
}

// Stats implements Model. The moments account exactly for the truncation of
// the Gaussian at zero (negligible for sigma/mu = 0.3 but not in general).
func (m RCBR) Stats() Stats {
	mean, variance := truncatedNormalMoments(m.Mean, m.Sigma, 0)
	return Stats{Mean: mean, Variance: variance, CorrTime: m.CorrTime, Peak: math.Inf(1)}
}

// New implements Model.
func (m RCBR) New(r *rng.PCG) Source {
	return &rcbrSource{m: m, r: r}
}

// renew is New reusing old's storage: an RCBR source carries no state
// beyond its parameters and stream, so reseeding in place is exactly New.
func (m RCBR) renew(old Source, r *rng.PCG) Source {
	if s, ok := old.(*rcbrSource); ok && s.m == m {
		s.r = r
		return s
	}
	return m.New(r)
}

type rcbrSource struct {
	m RCBR
	r *rng.PCG
}

func (s *rcbrSource) Next() Segment {
	return Segment{
		Rate:     s.r.TruncatedNormal(s.m.Mean, s.m.Sigma, 0),
		Duration: s.r.Exp(s.m.CorrTime),
	}
}

// truncatedNormalMoments returns the mean and variance of N(mu, sigma^2)
// conditioned on being >= lo.
func truncatedNormalMoments(mu, sigma, lo float64) (mean, variance float64) {
	if sigma == 0 {
		return mu, 0
	}
	a := (lo - mu) / sigma
	z := 1 - gauss.CDF(a)
	if z <= 0 {
		return lo, 0
	}
	lambda := gauss.Phi(a) / z
	mean = mu + sigma*lambda
	variance = sigma * sigma * (1 + a*lambda - lambda*lambda)
	return mean, variance
}

// ---------------------------------------------------------------------------
// On-off source.

// OnOff is a two-state fluid source: it emits PeakRate for an exponential
// on-period with mean OnTime, then is silent for an exponential off-period
// with mean OffTime.
type OnOff struct {
	PeakRate float64
	OnTime   float64
	OffTime  float64
}

// Stats implements Model. For a two-state Markov fluid the stationary
// on-probability is OnTime/(OnTime+OffTime) and the autocorrelation decays
// as exp(-t (1/OnTime + 1/OffTime)), giving the integral correlation time
// 1/(1/OnTime + 1/OffTime).
func (m OnOff) Stats() Stats {
	pOn := m.OnTime / (m.OnTime + m.OffTime)
	mean := pOn * m.PeakRate
	variance := pOn * (1 - pOn) * m.PeakRate * m.PeakRate
	tc := 1 / (1/m.OnTime + 1/m.OffTime)
	return Stats{Mean: mean, Variance: variance, CorrTime: tc, Peak: m.PeakRate}
}

// New implements Model. Sources start in a state drawn from the stationary
// distribution so that the aggregate process is stationary from time zero.
func (m OnOff) New(r *rng.PCG) Source {
	on := r.Float64() < m.OnTime/(m.OnTime+m.OffTime)
	return &onOffSource{m: m, r: r, on: on}
}

type onOffSource struct {
	m  OnOff
	r  *rng.PCG
	on bool
}

func (s *onOffSource) Next() Segment {
	var seg Segment
	if s.on {
		seg = Segment{Rate: s.m.PeakRate, Duration: s.r.Exp(s.m.OnTime)}
	} else {
		seg = Segment{Rate: 0, Duration: s.r.Exp(s.m.OffTime)}
	}
	s.on = !s.on
	return seg
}

// ---------------------------------------------------------------------------
// Markov-modulated fluid.

// MarkovFluid is a K-state continuous-time Markov fluid source: in state i
// the flow emits Rates[i]; it leaves state i after an exponential sojourn
// with rate -Gen[i][i], jumping to j with probability Gen[i][j]/(-Gen[i][i]).
// The appendix of the paper (Assumption B.6) cites exactly this class as
// one for which the functional central limit theorem holds.
type MarkovFluid struct {
	Rates []float64   // emission rate per state
	Gen   [][]float64 // generator matrix Q: Gen[i][j] >= 0 for i != j, rows sum to 0

	pi []float64 // cached stationary distribution
}

// NewMarkovFluid validates and returns a Markov fluid model. It returns an
// error if the generator is malformed or the chain has an absorbing state.
func NewMarkovFluid(rates []float64, gen [][]float64) (*MarkovFluid, error) {
	k := len(rates)
	if k == 0 {
		return nil, fmt.Errorf("traffic: MarkovFluid needs at least one state")
	}
	if len(gen) != k {
		return nil, fmt.Errorf("traffic: generator has %d rows, want %d", len(gen), k)
	}
	for i, row := range gen {
		if len(row) != k {
			return nil, fmt.Errorf("traffic: generator row %d has %d entries, want %d", i, len(row), k)
		}
		var sum float64
		for j, q := range row {
			if i == j {
				continue
			}
			if q < 0 {
				return nil, fmt.Errorf("traffic: negative off-diagonal generator entry at (%d,%d)", i, j)
			}
			sum += q
		}
		if math.Abs(row[i]+sum) > 1e-9*(1+sum) {
			return nil, fmt.Errorf("traffic: generator row %d does not sum to zero", i)
		}
		if k > 1 && sum == 0 {
			return nil, fmt.Errorf("traffic: state %d is absorbing", i)
		}
	}
	m := &MarkovFluid{Rates: rates, Gen: gen}
	pi, err := stationary(gen)
	if err != nil {
		return nil, err
	}
	m.pi = pi
	return m, nil
}

// Stats implements Model. The correlation time reported is the integral
// time-scale of the rate process computed from the spectral decomposition
// being unavailable in closed form for general chains; we report the
// sojourn-weighted mean holding time as a practical proxy, and 0 for
// single-state chains.
func (m *MarkovFluid) Stats() Stats {
	var mean, second, peak, tc float64
	for i, p := range m.pi {
		mean += p * m.Rates[i]
		second += p * m.Rates[i] * m.Rates[i]
		if m.Rates[i] > peak {
			peak = m.Rates[i]
		}
		if len(m.pi) > 1 {
			tc += p / (-m.Gen[i][i])
		}
	}
	return Stats{Mean: mean, Variance: second - mean*mean, CorrTime: tc, Peak: peak}
}

// New implements Model. The initial state is drawn from the stationary
// distribution.
func (m *MarkovFluid) New(r *rng.PCG) Source {
	state := sampleDiscrete(m.pi, r)
	return &markovSource{m: m, r: r, state: state}
}

type markovSource struct {
	m     *MarkovFluid
	r     *rng.PCG
	state int
}

func (s *markovSource) Next() Segment {
	i := s.state
	exit := -s.m.Gen[i][i]
	if exit <= 0 { // single-state chain: constant rate forever (in big chunks)
		return Segment{Rate: s.m.Rates[i], Duration: math.MaxFloat64 / 4}
	}
	seg := Segment{Rate: s.m.Rates[i], Duration: s.r.Exp(1 / exit)}
	// Jump: choose next state proportional to off-diagonal rates.
	u := s.r.Float64() * exit
	var cum float64
	for j, q := range s.m.Gen[i] {
		if j == i {
			continue
		}
		cum += q
		if u < cum {
			s.state = j
			break
		}
	}
	return seg
}

// sampleDiscrete draws an index from the probability vector p.
func sampleDiscrete(p []float64, r *rng.PCG) int {
	u := r.Float64()
	var cum float64
	for i, pi := range p {
		cum += pi
		if u < cum {
			return i
		}
	}
	return len(p) - 1
}

// stationary solves pi Q = 0, sum(pi) = 1 by Gaussian elimination on the
// transposed system with the normalization replacing one equation.
func stationary(gen [][]float64) ([]float64, error) {
	k := len(gen)
	if k == 1 {
		return []float64{1}, nil
	}
	// Build A = Q^T with last row replaced by ones; b = e_k.
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := 0; i < k; i++ {
		a[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			a[i][j] = gen[j][i]
		}
	}
	for j := 0; j < k; j++ {
		a[k-1][j] = 1
	}
	b[k-1] = 1
	pi, err := solveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("traffic: cannot solve for stationary distribution: %w", err)
	}
	for i, p := range pi {
		if p < -1e-9 {
			return nil, fmt.Errorf("traffic: stationary distribution has negative mass at state %d", i)
		}
		if p < 0 {
			pi[i] = 0
		}
	}
	return pi, nil
}

// solveLinear solves a dense linear system by Gaussian elimination with
// partial pivoting. It mutates its arguments.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil, fmt.Errorf("singular matrix at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// ---------------------------------------------------------------------------
// Constant-rate source (useful as a degenerate baseline and in tests).

// Constant is a CBR source emitting Rate forever.
type Constant struct {
	Rate float64
}

// Stats implements Model.
func (m Constant) Stats() Stats {
	return Stats{Mean: m.Rate, Variance: 0, CorrTime: 0, Peak: m.Rate}
}

// New implements Model.
func (m Constant) New(*rng.PCG) Source { return constSource{rate: m.Rate} }

type constSource struct{ rate float64 }

func (s constSource) Next() Segment {
	return Segment{Rate: s.rate, Duration: math.MaxFloat64 / 4}
}
