package estimator

// FoldRates is the vectorized cross-sectional sample fold of eq. 7: it
// returns the aggregate rate ΣX_i and the aggregate square ΣX_i² over a
// rate column in one pass, in index order. The columnar engines call it
// once per measurement tick instead of accumulating per flow, and the
// simulator's periodic renormalization (sim.Engine) uses it to rebuild its
// drifted incremental float sums; the gateway keeps exact integer sums and
// needs no fold. The accumulation order (left to right over the slice) is
// part of the contract: callers rely on bit-identical results to the
// per-flow loops this replaces.
func FoldRates(rates []float64) (sumRate, sumSq float64) {
	for _, r := range rates {
		sumRate += r
		sumSq += r * r
	}
	return sumRate, sumSq
}
