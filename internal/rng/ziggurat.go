// Ziggurat sampling for the standard normal (Marsaglia & Tsang, 2000).
//
// The positive half-density f(x) = exp(-x²/2) is covered by 256 horizontal
// layers of equal area v: layer 0 is the base strip plus the tail beyond the
// cut point r, layers 1..254 are rectangles [0, x_i]×[y_i, y_{i+1}], and
// layer 255 is the cap under the curve's peak. A draw picks a layer from 8
// bits of a single Uint64, forms a candidate x from 53 more bits of the same
// word, and accepts immediately when the candidate lands in the part of the
// rectangle that lies fully under the curve — which happens ~99% of the
// time, costing one 64-bit draw and one multiply, no logs, no square roots.
// The rare wedge rejection test and the Marsaglia tail sampler handle the
// rest exactly, so the output distribution is the exact normal law (the
// goodness-of-fit test in ziggurat_test.go checks it against math.Erfc).
//
// The tables are computed at init by solving the layer-closure equation for
// r with bisection: float64 arithmetic is deterministic, so every process
// builds bit-identical tables and seeded streams stay reproducible.
package rng

import "math"

const zigLayers = 256

var (
	zigR float64                // tail cut point r (≈ 3.6542 for 256 layers)
	zigX [zigLayers + 1]float64 // layer right edges; zigX[0] is the base pseudo-width v/f(r), zigX[256] = 0
	zigY [zigLayers + 1]float64 // f at the layer boundaries; zigY[0] = 0, zigY[256] = 1
	// zigXS[i] = zigX[i]·2⁻⁵³: the per-layer candidate scale, prefolded so
	// the fast path forms its candidate with one multiply instead of two.
	// The fold is exact — 2⁻⁵³ only shifts the exponent — and the 53-bit
	// integer converts to float64 exactly, so u·zigXS[i] rounds once, at the
	// same place (u·2⁻⁵³)·zigX[i] rounds, and the candidates are bit-equal.
	zigXS [zigLayers]float64
)

// zigF is the unnormalized standard normal density.
func zigF(x float64) float64 { return math.Exp(-0.5 * x * x) }

// zigTailArea is ∫_r^∞ exp(-x²/2) dx = sqrt(π/2)·erfc(r/√2).
func zigTailArea(r float64) float64 {
	return math.Sqrt(math.Pi/2) * math.Erfc(r/math.Sqrt2)
}

// zigBuild fills xs/ys for a candidate cut point r and returns the area
// closure residual: the top layer's upper boundary minus 1. The residual is
// zero exactly when the 256 layers of area v(r) tile the region under f.
func zigBuild(r float64, xs, ys *[zigLayers + 1]float64) float64 {
	v := r*zigF(r) + zigTailArea(r)
	xs[1], ys[1] = r, zigF(r)
	xs[0], ys[0] = v/ys[1], 0
	for i := 2; i <= zigLayers-1; i++ {
		ys[i] = ys[i-1] + v/xs[i-1]
		if ys[i] >= 1 {
			// Layers overshoot the peak early: r is too small. Report a
			// positive residual scaled by how early the overshoot happened.
			return 1 + float64(zigLayers-i)
		}
		xs[i] = math.Sqrt(-2 * math.Log(ys[i]))
	}
	return ys[zigLayers-1] + v/xs[zigLayers-1] - 1
}

func init() {
	// Bisect the closure residual over a bracket that safely contains the
	// 256-layer solution r ≈ 3.654.
	lo, hi := 3.0, 4.5
	var xs, ys [zigLayers + 1]float64
	if zigBuild(lo, &xs, &ys) <= 0 || zigBuild(hi, &xs, &ys) >= 0 {
		panic("rng: ziggurat bisection bracket does not straddle the root")
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if zigBuild(mid, &xs, &ys) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	zigR = hi // the residual is ≤ 0 at hi: layers never overshoot the peak
	zigBuild(zigR, &zigX, &zigY)
	zigX[zigLayers], zigY[zigLayers] = 0, 1
	for i := range zigXS {
		zigXS[i] = zigX[i] * 0x1p-53
	}
}

// normalSlow finishes a ziggurat draw whose candidate (b, x) missed the
// all-under-the-curve fast region handled inline in Normal: the tail layer
// and the wedge test, looping over fresh candidates on rejection. The draw
// consumption is exactly the single-loop implementation's — Normal performs
// one Uint64 and the fast accept, this function the rest — so the output
// stream is unchanged by the fast-path split.
func (p *PCG) normalSlow(b uint64, x float64) float64 {
	for {
		i := b & (zigLayers - 1) // bits 0..7: layer
		neg := b&(1<<8) != 0     // bit 8: sign
		if i == 0 {
			// Tail beyond r: Marsaglia's exact exponential-rejection tail.
			for {
				e1 := -math.Log(p.Float64Open()) / zigR
				e2 := -math.Log(p.Float64Open())
				if e2+e2 >= e1*e1 {
					if neg {
						return -(zigR + e1)
					}
					return zigR + e1
				}
			}
		}
		// Wedge: accept x with probability proportional to how far f(x)
		// reaches into the layer.
		if zigY[i]+(zigY[i+1]-zigY[i])*p.Float64() < zigF(x) {
			if neg {
				return -x
			}
			return x
		}
		// Rejected: draw the next candidate, replaying Normal's fast accept
		// here so the loop matches the historical draw order bit for bit.
		b = p.Uint64()
		j := b & (zigLayers - 1)               // bits 0..7: layer
		x = float64(b>>11) * 0x1p-53 * zigX[j] // bits 11..63: uniform [0,1)
		if x < zigX[j+1] {
			if b&(1<<8) != 0 {
				return -x
			}
			return x
		}
	}
}
