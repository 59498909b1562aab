package link

import (
	"math"

	"repro/internal/stats"
)

// FluidBuffer models a fluid queue in front of a server of rate c with a
// finite buffer of size B: backlog grows at (load − c) when the aggregate
// input exceeds the service rate, drains at (c − load) otherwise, and fluid
// arriving while the backlog sits at B is lost.
//
// The paper deliberately analyzes the bufferless case and argues it is a
// conservative upper bound for buffered systems ("In any case, the
// performance of schemes for the bufferless model is a conservative upper
// bound to the case when there are buffers", Section 2). This type lets the
// claim be verified: drive the same piecewise-constant aggregate through a
// Link and a FluidBuffer and compare the overflow fraction with the loss
// fraction. All integration is exact because the input is piecewise
// constant.
type FluidBuffer struct {
	capacity float64 // service rate c
	size     float64 // buffer size B (use math.Inf(1) for unbounded)

	now     float64
	load    float64 // current aggregate input rate
	backlog float64 // current buffered fluid
	stating bool

	offered float64            // fluid offered while stats enabled
	lost    float64            // fluid lost to buffer overflow
	busy    stats.TimeWeighted // indicator backlog > 0
	queue   stats.TimeWeighted // backlog integral
	full    stats.TimeWeighted // indicator backlog == B (loss periods)
}

// NewFluidBuffer returns an empty buffer at time 0 with statistics
// disabled. capacity must be positive; size must be non-negative (zero
// reduces to the bufferless link: everything above capacity is lost).
func NewFluidBuffer(capacity, size float64) *FluidBuffer {
	if capacity <= 0 {
		panic("link: FluidBuffer capacity must be positive")
	}
	if size < 0 || math.IsNaN(size) {
		panic("link: FluidBuffer size must be non-negative")
	}
	return &FluidBuffer{capacity: capacity, size: size}
}

// Capacity returns the service rate.
func (b *FluidBuffer) Capacity() float64 { return b.capacity }

// EnableStats starts statistics collection at time t.
func (b *FluidBuffer) EnableStats(t float64) {
	b.AdvanceTo(t)
	b.stating = true
}

// AdvanceTo integrates the buffer dynamics from the current time to t under
// the current input rate.
func (b *FluidBuffer) AdvanceTo(t float64) {
	dt := t - b.now
	if dt <= 0 {
		return
	}
	b.now = t
	net := b.load - b.capacity

	if b.stating {
		b.offered += b.load * dt
	}
	switch {
	case net > 0:
		// Filling. Time to hit the ceiling (if any).
		room := b.size - b.backlog
		tFill := math.Inf(1)
		if !math.IsInf(b.size, 1) {
			tFill = room / net
		}
		if tFill >= dt {
			// Strictly filling throughout.
			if b.stating {
				b.queue.Observe(b.backlog+net*dt/2, dt)
				b.busy.Observe(1, dt)
				b.full.Observe(0, dt)
			}
			b.backlog += net * dt
		} else {
			// Fill phase then saturated phase with loss at rate net.
			if b.stating {
				b.queue.Observe(b.backlog+net*tFill/2, tFill)
				b.busy.Observe(1, tFill)
				b.full.Observe(0, tFill)
				b.queue.Observe(b.size, dt-tFill)
				b.busy.Observe(boolIndicator(b.size > 0), dt-tFill)
				b.full.Observe(1, dt-tFill)
				b.lost += net * (dt - tFill)
			}
			b.backlog = b.size
		}
	case net < 0:
		// Draining. Time to empty.
		tEmpty := b.backlog / -net
		if tEmpty >= dt {
			if b.stating {
				b.queue.Observe(b.backlog+net*dt/2, dt)
				b.busy.Observe(1, dt)
				b.full.Observe(0, dt)
			}
			b.backlog += net * dt
		} else {
			if b.stating {
				b.queue.Observe(b.backlog/2, tEmpty)
				b.busy.Observe(1, tEmpty)
				b.queue.Observe(0, dt-tEmpty)
				b.busy.Observe(0, dt-tEmpty)
				b.full.Observe(0, dt)
			}
			b.backlog = 0
		}
	default:
		// Input exactly at capacity: backlog frozen.
		if b.stating {
			b.queue.Observe(b.backlog, dt)
			b.busy.Observe(boolIndicator(b.backlog > 0), dt)
			if b.backlog >= b.size && !math.IsInf(b.size, 1) && b.size > 0 {
				b.full.Observe(1, dt)
			}
		}
	}
}

// boolIndicator converts a condition to 0/1.
func boolIndicator(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// SetLoad switches the input rate at time t after integrating the interval
// under the previous rate.
func (b *FluidBuffer) SetLoad(t, load float64) {
	b.AdvanceTo(t)
	if load < 0 {
		load = 0
	}
	b.load = load
}

// BufferReport summarizes the buffered QoS metrics.
type BufferReport struct {
	// LossFraction is lost fluid / offered fluid — the buffered analogue
	// of the overflow probability (and never larger for B > 0).
	LossFraction float64
	// BusyFraction is the fraction of time the backlog was positive.
	BusyFraction float64
	// FullFraction is the fraction of time the buffer sat at its ceiling.
	FullFraction float64
	// MeanBacklog is the time-averaged buffered volume.
	MeanBacklog float64
	// MeanDelay is MeanBacklog/capacity — the fluid (Little's law) mean
	// queueing delay experienced by traffic through the buffer.
	MeanDelay float64
	// Offered and Lost are the raw fluid volumes.
	Offered float64
	Lost    float64
}

// Report returns the current metrics snapshot.
func (b *FluidBuffer) Report() BufferReport {
	r := BufferReport{
		BusyFraction: b.busy.Mean(),
		FullFraction: b.full.Mean(),
		MeanBacklog:  b.queue.Mean(),
		Offered:      b.offered,
		Lost:         b.lost,
	}
	if b.offered > 0 {
		r.LossFraction = b.lost / b.offered
	}
	r.MeanDelay = r.MeanBacklog / b.capacity
	return r
}
