package fault

import "sync/atomic"

// Clock is a deterministic monotonic-nanosecond source with injectable
// clock faults, pluggable wherever the gateway accepts a LatencyClock.
// Each read advances the reading by the current step, so equally seeded
// runs stay bit-identical; Freeze pins the reading (a frozen latency
// clock — every admission appears instantaneous and, to a staleness
// watchdog keyed on this clock, time stops), and Jump slews it forward in
// one discontinuity (an NTP-style step that makes the last tick look
// ancient). All methods are safe for concurrent use.
type Clock struct {
	now  atomic.Int64
	step atomic.Int64
}

// NewClock returns a Clock starting at zero that advances by step
// nanoseconds per read.
func NewClock(step int64) *Clock {
	c := &Clock{}
	c.step.Store(step)
	return c
}

// Now reads the clock: it advances the reading by the current step and
// returns it.
func (c *Clock) Now() int64 { return c.now.Add(c.step.Load()) }

// Func returns Now as a plain func, the shape gateway.Config.LatencyClock
// wants.
func (c *Clock) Func() func() int64 { return c.Now }

// Run resumes (or changes) the per-read advance.
func (c *Clock) Run(step int64) { c.step.Store(step) }

// Jump slews the reading by delta nanoseconds in one step. Negative
// deltas make the clock non-monotonic — the hostile case latency
// instrumentation must survive.
func (c *Clock) Jump(delta int64) { c.now.Add(delta) }
