// Columnar (struct-of-arrays) flow state for RCBR, the paper's workload.
// The ensemble engines advance thousands of independent flows per
// replication; with one Source object per flow every segment draw pays an
// interface dispatch, and — worse — each flow's draw chain (normal → log →
// compare → next draw) is serially dependent, so the CPU idles on the
// ~70-cycle log latency. Laying the flow state out in parallel columns lets
// the RCBR kernel advance several flows in interleaved lanes: the lanes'
// draw chains are independent (each flow owns its RNG substream), so the
// out-of-order window overlaps their logs and the per-segment cost drops
// from the latency of one chain to the throughput of many.
//
// Bit-identity contract: RCBR.InitColumn and RCBR.AdvanceColumn consume
// exactly the draws that RCBR.New and Source.Next would consume from each
// flow's substream, and produce the same (rate, segment-end) values.
// Interleaving is safe because no draws cross flows. The differential
// tests in columns_test.go and the engine-level test in internal/sim pin
// this equivalence.
package traffic

import "repro/internal/rng"

// Columns is the struct-of-arrays state of a batch of RCBR flows. All
// slices are parallel, indexed by flow slot. Rate and End mirror a scalar
// source's current Segment (End is the segment's absolute end time for a
// flow started at time zero); Str holds each flow's RNG substream in place
// so deriving a flow performs no allocation.
type Columns struct {
	Rate []float64
	End  []float64
	Str  []rng.PCG
}

// Grow extends the columns to at least n slots, preserving existing
// contents. Newly exposed slots hold stale garbage; callers must initialize
// them (SplitInto + InitColumn) before use.
func (c *Columns) Grow(n int) {
	c.Rate = growCol(c.Rate, n)
	c.End = growCol(c.End, n)
	c.Str = growCol(c.Str, n)
}

// Swap exchanges flow slots i and j across every column.
func (c *Columns) Swap(i, j int) {
	c.Rate[i], c.Rate[j] = c.Rate[j], c.Rate[i]
	c.End[i], c.End[j] = c.End[j], c.End[i]
	c.Str[i], c.Str[j] = c.Str[j], c.Str[i]
}

func growCol[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// InitColumn performs, for flows [lo, hi), the draws New+Next would: the
// same (truncated-normal rate, exponential duration) pair per flow.
// Afterwards Rate[i] and End[i] describe flow i's first segment (End
// relative to a start at time zero). Setting End to zero and advancing to
// t = 0 reproduces exactly that one draw pair, because exponential
// durations are strictly positive.
//
// The heavy lifting is rng.SegmentAdvance, the batched renewal-chain
// sampler: it interleaves several flows' draw chains in lanes (each flow
// owns its substream, so chains are independent and their log latencies
// overlap) with the whole per-segment path inlined into one loop body. A
// flow's own draw order (rate, then duration, segment by segment) is
// untouched, which is what bit-identity requires.
func (m RCBR) InitColumn(c *Columns, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.End[i] = 0
	}
	rng.SegmentAdvance(c.Str, c.Rate, c.End, lo, hi, m.Mean, m.Sigma, 0, m.CorrTime, 0)
}

// AdvanceColumn advances every flow i in [0, n) with End[i] <= t through
// successive segments until End[i] > t, exactly as the scalar loop
// `for segEnd <= t { seg := src.Next(); ... }` would.
func (m RCBR) AdvanceColumn(c *Columns, n int, t float64) {
	rng.SegmentAdvance(c.Str, c.Rate, c.End, 0, n, m.Mean, m.Sigma, 0, m.CorrTime, t)
}
