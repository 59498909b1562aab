package cluster

import (
	"context"

	"repro/internal/gateway"
)

// ReplayTarget adapts a Cluster to the loadgen.Target shape (structurally
// — this package does not import loadgen), so deterministic schedules
// replay against a fleet exactly as they do against a bare gateway or the
// network client. Like loadgen.GatewayTarget it reuses one decision
// buffer, so it is for single-goroutine replay; concurrent drivers should
// construct one ReplayTarget per worker over the same Cluster.
type ReplayTarget struct {
	C   *Cluster
	dst []gateway.Decision
}

// AdmitBatch implements the loadgen Target shape.
func (t *ReplayTarget) AdmitBatch(_ context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	var err error
	t.dst, err = t.C.AdmitBatch(flows, rates, t.dst[:0])
	return t.dst, err
}

// Depart implements the loadgen Target shape. It reads the not-active
// outcome as a value, not through Cluster.Depart's error, which would
// allocate for every refused flow the schedule departs.
func (t *ReplayTarget) Depart(_ context.Context, flow uint64) (bool, error) {
	return t.C.fleet.Depart(flow), nil
}

// UpdateRate implements the loadgen Target shape, likewise without an
// error per refused flow. Schedules never carry invalid rates, so false is
// the not-active outcome.
func (t *ReplayTarget) UpdateRate(_ context.Context, flow uint64, rate float64) (bool, error) {
	active, err := t.C.fleet.UpdateRate(flow, rate)
	return active && err == nil, nil
}
