package sim

import (
	"context"

	"repro/internal/rng"
)

// Collect runs body for every replication of p on the worker pool and
// returns the per-replication results in replication order. It packages
// the stripe-accumulator idiom every ensemble consumer was hand-rolling
// (per-stripe slices appended in stripe order, merged rep%stripes /
// rep/stripes at the end): results are positioned by replication index, so
// the output is bit-identical for a fixed seed regardless of worker count,
// and downstream consumers (Wilson windows, report tables) never see
// scheduling order.
//
// On error the partial results are discarded and the first body error (or
// the context error) is returned, matching Run's contract.
func Collect[T any](ctx context.Context, p Replicated, body func(rep int, r *rng.PCG) (T, error)) ([]T, error) {
	out := make([]T, p.Replications)
	err := p.Run(ctx, func(_, rep int, r *rng.PCG) error {
		v, err := body(rep, r)
		if err != nil {
			return err
		}
		out[rep] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(i) for every index in [0, n) on the worker pool: the
// fan-out for jobs that carry their own seeds — simulation points of a
// sweep, cells of a scenario matrix — and so want the pool's bounded
// workers, cancellation and first-error contract but none of its
// substreams. Callers write results into index-addressed slices, which
// keeps their order, and every table or report rendered from them,
// independent of scheduling.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	// One index per stripe: no two indices are serialized behind each other.
	return Replicated{Replications: n, Stripes: n}.Run(ctx, func(_, i int, _ *rng.PCG) error { return fn(i) })
}
