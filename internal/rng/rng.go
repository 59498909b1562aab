// Package rng implements the reproducible pseudo-random number generation
// used by every stochastic component in this repository: traffic sources,
// flow holding times, and Monte Carlo experiments.
//
// The core generator is PCG XSL RR 128/64 (O'Neill, 2014): a 128-bit linear
// congruential state with an output permutation. It is fast, has a period of
// 2^128, passes BigCrush, and — critically for experiment reproducibility —
// supports cheap deterministic stream splitting so that every flow, source
// and replication draws from an independent substream derived from a single
// experiment seed.
package rng

import (
	"math"
	"math/bits"
)

// multiplier for the 128-bit LCG step (PCG's default), split into two
// 64-bit halves: 0x2360ed051fc65da4_4385df649fccf645.
const (
	mulHi = 0x2360ed051fc65da4
	mulLo = 0x4385df649fccf645
)

// PCG is a PCG XSL RR 128/64 generator. The zero value is NOT usable;
// construct with New or Split.
type PCG struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // stream selector (must be odd in its 128-bit form)
	incLo  uint64
}

// New returns a generator seeded with seed on stream stream. Different
// (seed, stream) pairs yield statistically independent sequences.
func New(seed, stream uint64) *PCG {
	p := new(PCG)
	p.Seed(seed, stream)
	return p
}

// Seed (re)initializes p in place with the same construction as New, so a
// PCG value can live inside a larger structure or on the stack without a
// separate heap allocation (the same contract as SplitInto).
func (p *PCG) Seed(seed, stream uint64) {
	p.incHi = stream
	p.incLo = stream*0x9e3779b97f4a7c15 + 0xda3e39cb94b95bdb | 1
	p.hi, p.lo = 0, 0
	p.step()
	p.lo += seed
	p.hi += 0x9e3779b97f4a7c15 ^ seed
	p.step()
	p.step()
}

// Split derives a new generator from p whose stream is a deterministic
// function of p's current state and the given tag. It is used to give every
// simulated flow its own substream so that changing one component of an
// experiment does not perturb the random inputs of the others.
func (p *PCG) Split(tag uint64) *PCG {
	q := new(PCG)
	p.SplitInto(tag, q)
	return q
}

// SplitInto is Split without the allocation: it consumes the same two draws
// from p and seeds dst in place with exactly the stream Split(tag) would
// have returned. Hot loops that derive one substream per flow or per
// replication use it with a reused PCG value to stay off the heap.
func (p *PCG) SplitInto(tag uint64, dst *PCG) {
	dst.Seed(p.Uint64()^mix(tag), p.Uint64()^mix(tag+0x632be59bd9b4e019))
}

// SplitN derives n independent substreams from p, tagged 0..n-1. It is the
// bulk form of Split used historically by the replicated worker pool: all
// streams are drawn up-front, single-threaded, so that the assignment of
// substream to replication index is deterministic no matter how the
// replications are later scheduled across workers.
func (p *PCG) SplitN(n int) []*PCG {
	out := make([]*PCG, n)
	for i := range out {
		out[i] = p.Split(uint64(i))
	}
	return out
}

// Jump advances the generator by n steps (n calls of Uint64) in O(log n)
// time, using the standard LCG jump-ahead: with state update s' = A·s + C
// (mod 2^128), n steps compose to s' = A^n·s + (A^n-1)/(A-1)·C, computed by
// square-and-multiply without divisions. Jump(0) is the identity.
func (p *PCG) Jump(n uint64) {
	// Accumulated affine map (accMul, accAdd), initially the identity.
	accMulHi, accMulLo := uint64(0), uint64(1)
	accAddHi, accAddLo := uint64(0), uint64(0)
	// Current squared step (curMul, curAdd), initially one LCG step.
	curMulHi, curMulLo := uint64(mulHi), uint64(mulLo)
	curAddHi, curAddLo := p.incHi, p.incLo
	for n > 0 {
		if n&1 == 1 {
			accMulHi, accMulLo = mul128(accMulHi, accMulLo, curMulHi, curMulLo)
			accAddHi, accAddLo = mul128(accAddHi, accAddLo, curMulHi, curMulLo)
			accAddHi, accAddLo = add128(accAddHi, accAddLo, curAddHi, curAddLo)
		}
		// (curMul, curAdd) composed with itself: mul squares, add becomes
		// (curMul+1)·curAdd.
		m1Hi, m1Lo := add128(curMulHi, curMulLo, 0, 1)
		curAddHi, curAddLo = mul128(m1Hi, m1Lo, curAddHi, curAddLo)
		curMulHi, curMulLo = mul128(curMulHi, curMulLo, curMulHi, curMulLo)
		n >>= 1
	}
	sHi, sLo := mul128(accMulHi, accMulLo, p.hi, p.lo)
	p.hi, p.lo = add128(sHi, sLo, accAddHi, accAddLo)
}

// mul128 returns a·b mod 2^128 for 128-bit operands given as (hi, lo).
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	hi += aHi*bLo + aLo*bHi
	return hi, lo
}

// add128 returns a+b mod 2^128 for 128-bit operands given as (hi, lo).
func add128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	lo, carry := bits.Add64(aLo, bLo, 0)
	hi, _ = bits.Add64(aHi, bHi, carry)
	return hi, lo
}

// mix is SplitMix64's finalizer, used to decorrelate small integer tags.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// step advances the 128-bit LCG state.
func (p *PCG) step() {
	// (hi, lo) = (hi, lo) * mul + inc, in 128-bit arithmetic.
	lo, carry := mul64(p.lo, mulLo)
	hi := p.hi*mulLo + p.lo*mulHi + carry
	lo2 := lo + p.incLo
	if lo2 < lo {
		hi++
	}
	p.lo = lo2
	p.hi = hi + p.incHi
}

// mul64 computes the 128-bit product of a and b, returning (lo, hi).
func mul64(a, b uint64) (lo, hi uint64) {
	hi, lo = bits.Mul64(a, b)
	return lo, hi
}

// Uint64 returns the next 64 pseudo-random bits. The body is the LCG step
// plus the XSL RR output fold, written out flat (no helper calls beyond the
// bits intrinsics) so it stays within the compiler's inlining budget: every
// sampler in the hot simulation loops draws through this function, and
// keeping it inline keeps the generator state in registers.
func (p *PCG) Uint64() uint64 {
	// (hi, lo) = (hi, lo) * mul + inc, in 128-bit arithmetic.
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, carry := bits.Add64(lo, p.incLo, 0)
	hi, _ = bits.Add64(hi, p.incHi, carry)
	p.hi, p.lo = hi, lo
	// XSL RR output: xor-fold the 128-bit state and rotate by the top bits.
	x := hi ^ lo
	rot := uint(hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
// The shifted draw is converted through int64: it always fits (53 bits), the
// value is unchanged, and the signed conversion is a single instruction
// where the unsigned one costs a sign test and branch on amd64.
func (p *PCG) Float64() float64 {
	return float64(int64(p.Uint64()>>11)) / (1 << 53)
}

// Float64Open returns a uniform sample in (0, 1), never exactly 0; useful
// for logarithmic transforms.
func (p *PCG) Float64Open() float64 {
	for {
		u := p.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0. Lemire's
// nearly-divisionless bounded rejection keeps the distribution exact.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	bound := uint64(n)
	for {
		v := p.Uint64()
		lo, hi := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Exp returns an exponential sample with the given mean. Flow holding times
// in the paper are exponential with mean T_h; RCBR renegotiation intervals
// are exponential with mean T_c. The sample is -mean·log(U) for the next
// uniform U in (0, 1); logPos computes the logarithm bit-identically to
// math.Log (asserted by TestLogPosMatchesMathLog), so the output stream is
// unchanged from the math.Log-based implementation while staying on a
// call path the compiler can schedule into the surrounding loop.
func (p *PCG) Exp(mean float64) float64 {
	u := float64(int64(p.Uint64()>>11)) / (1 << 53) // Float64, with Uint64 inlined
	if u == 0 {
		return p.expResample(mean)
	}
	return -mean * logPos(u)
}

// expResample handles the measure-zero Float64() == 0 draw: redraw until
// positive, exactly what Float64Open did.
//
//go:noinline
func (p *PCG) expResample(mean float64) float64 {
	return -mean * logPos(p.Float64Open())
}

// msun log constants, shared by logPos and the copy of its body inlined in
// SegmentSample.
const (
	ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
	ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
	l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
	l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
	l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
	l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
	l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
	l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
	l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
)

// logPos is math.Log restricted to positive, finite, normal inputs — the
// only inputs the samplers produce (uniform draws lie in [2^-53, 1)). It is
// the msun algorithm with the same constants and operation order as the
// standard library (both the portable Go version and the amd64 assembly),
// so its results are bit-identical to math.Log on that domain; the Frexp
// call is replaced by direct bit manipulation, valid because the input is
// never zero, denormal, infinite or NaN. Dropping the special-case
// dispatch and the assembly-call boundary lets independent log evaluations
// overlap in the out-of-order window, which is where the ensemble engine's
// segment-duration draws spend most of their time.
func logPos(x float64) float64 {
	// Frexp(x) for a normal positive x: f1 in [0.5, 1), x = f1 · 2^ki,
	// then renormalize to f1 in [√2/2, √2) by doubling small mantissas.
	// The comparison is done on the raw mantissa and the doubling by
	// picking the exponent, so the 50/50 split compiles to a flag
	// materialization instead of an unpredictable branch — a taken-or-not
	// coin flip per call would flush the pipeline and stall the
	// interleaved lanes the columnar engine runs this under.
	b := math.Float64bits(x)
	m := b & 0x000FFFFFFFFFFFFF
	var adj uint64
	if m < 0x6A09E667F3BCD { // mantissa of √2/2: f1 would fall below it
		adj = 1
	}
	f1 := math.Float64frombits(m | (0x3FE+adj)<<52)
	ki := int(b>>52)&0x7FF - 0x3FE - int(adj)
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (l1 + s4*(l3+s4*(l5+s4*l7)))
	t2 := s4 * (l2 + s4*(l4+s4*l6))
	r := t1 + t2
	hfsq := 0.5 * f * f
	return k*ln2Hi - ((hfsq - (s*(hfsq+r) + k*ln2Lo)) - f)
}

// SegmentSample draws a truncated-normal N(m, s²)|≥lo sample followed by an
// exponential sample with the given mean from p — the (rate, duration) pair
// of one RCBR traffic segment, fused into a single call. It is exactly
// TruncatedNormal(m, s, lo) then Exp(mean): same draws, same values. The
// columnar lane kernel advances millions of segments per ensemble; fusing
// the pair halves the call overhead per segment and gives the compiler one
// scheduling region in which the normal's accept test and the logarithm can
// overlap across lanes.
func (p *PCG) SegmentSample(m, s, lo, mean float64) (x, d float64) {
	b := p.Uint64()
	i := b & (zigLayers - 1)
	z := float64(int64(b>>11)) * zigXS[i]
	var n float64
	if z < zigX[i+1] {
		n = math.Float64frombits(math.Float64bits(z) | (b&(1<<8))<<55)
	} else {
		n = p.normalSlow(b, z)
	}
	x = m + s*n
	if x < lo {
		x = p.truncatedNormalSlow(m, s, lo)
	}
	u := float64(int64(p.Uint64()>>11)) / (1 << 53)
	if u == 0 {
		return x, p.expResample(mean)
	}
	// logPos(u), inlined by hand: the compiler cannot inline it (cost 163
	// against the 80 budget) and this is the one call site hot enough for
	// the call overhead to show. Identical operations in identical order, so
	// the result is bit-equal; TestSamplerStreamIdentity pins it.
	ub := math.Float64bits(u)
	um := ub & 0x000FFFFFFFFFFFFF
	var adj uint64
	if um < 0x6A09E667F3BCD {
		adj = 1
	}
	f := math.Float64frombits(um|(0x3FE+adj)<<52) - 1
	k := float64(int(ub>>52)&0x7FF - 0x3FE - int(adj))
	sf := f / (2 + f)
	s2 := sf * sf
	s4 := s2 * s2
	t1 := s2 * (l1 + s4*(l3+s4*(l5+s4*l7)))
	t2 := s4 * (l2 + s4*(l4+s4*l6))
	hfsq := 0.5 * f * f
	lg := k*ln2Hi - ((hfsq - (sf*(hfsq+(t1+t2)) + k*ln2Lo)) - f)
	return x, -mean * lg
}

// Normal returns a standard normal sample via the ziggurat method (see
// ziggurat.go): ~99% of draws cost one Uint64 and one multiply, with no
// transcendental functions. Traffic sources draw one normal per RCBR
// segment, so this is the hottest sampler in every ensemble. The accept
// test lives here so the common case needs no call; the rare wedge and
// tail cases fall through to normalSlow, which continues the draw with
// exactly the consumption the single-loop implementation had.
func (p *PCG) Normal() float64 {
	b := p.Uint64()
	i := b & (zigLayers - 1)
	x := float64(int64(b>>11)) * zigXS[i]
	if x < zigX[i+1] {
		// Sign from bit 8, applied by ORing it into the sign bit: x >= +0
		// here, so this is exactly negation, without the 50/50 branch.
		return math.Float64frombits(math.Float64bits(x) | (b&(1<<8))<<55)
	}
	return p.normalSlow(b, x)
}

// NormalMS returns a normal sample with mean m and standard deviation s.
func (p *PCG) NormalMS(m, s float64) float64 {
	return m + s*p.Normal()
}

// Gamma returns a Gamma(shape, scale) sample via the Marsaglia–Tsang
// squeeze method (shape >= 1), with the standard u^(1/shape) boost for
// shape < 1. Bursty arrival processes use it: interarrival times that are
// Gamma with coefficient of variation cv (shape = 1/cv², scale = mean·cv²)
// reduce to the Poisson process at cv = 1 in distribution, while cv > 1
// clusters arrivals into the flash-crowd-like bursts of the Gamma-burst
// workloads.
func (p *PCG) Gamma(shape, scale float64) float64 {
	if !(shape > 0) || !(scale > 0) {
		panic("rng: Gamma requires positive shape and scale")
	}
	boost := 1.0
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a).
		boost = math.Pow(p.Float64Open(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = p.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := p.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return boost * scale * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * scale * d * v
		}
	}
}

// TruncatedNormal returns a sample from N(m, s^2) conditioned on being >= lo,
// via simple rejection. It is used for non-negative traffic rates: the
// paper's RCBR sources have a Gaussian marginal with sigma/mu = 0.3, for
// which the mass below zero (~Q(3.33) ~ 4e-4) is negligible but must still
// be excluded to keep rates physical.
func (p *PCG) TruncatedNormal(m, s, lo float64) float64 {
	// Normal's ziggurat fast path, replicated here so the ~99% case runs
	// one call deep instead of two (this is the rate draw of every RCBR
	// segment in the columnar engine's lanes).
	b := p.Uint64()
	i := b & (zigLayers - 1)
	z := float64(int64(b>>11)) * zigXS[i]
	var n float64
	if z < zigX[i+1] {
		n = math.Float64frombits(math.Float64bits(z) | (b&(1<<8))<<55)
	} else {
		n = p.normalSlow(b, z)
	}
	if x := m + s*n; x >= lo {
		return x
	}
	return p.truncatedNormalSlow(m, s, lo)
}

// truncatedNormalSlow continues the rejection loop after TruncatedNormal's
// first candidate fell below the truncation point (~Q(3.33) of draws for
// the paper's sigma/mu = 0.3 sources).
//
//go:noinline
func (p *PCG) truncatedNormalSlow(m, s, lo float64) float64 {
	for i := 1; ; i++ {
		x := m + s*p.Normal()
		if x >= lo {
			return x
		}
		if i == 1000 {
			// Pathological truncation (lo far above the mean): fall back to
			// the boundary rather than spinning forever.
			return lo
		}
	}
}
