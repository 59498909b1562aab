package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Replicated is the shared parallel engine for replicated stochastic runs:
// the impulsive-load ensembles, the gateway soak experiments, and any
// future Monte Carlo study. It executes Replications independent jobs on a
// bounded worker pool with two guarantees:
//
//   - every replication draws from its own PCG substream, derived lazily
//     inside the worker (rng.SplitInto after an O(log n) rng.Jump) but
//     bit-identical to an up-front SplitN in replication order, so a
//     replication's draws depend on its index alone, never on which worker
//     ran it or when;
//   - the run honors context cancellation and stops at the first body
//     error.
//
// A replication's index is its only identity: callers keep each result at
// its index (Collect) and fold the results in index order, so the fold is
// bit-identical for a fixed seed at any worker count.
type Replicated struct {
	Replications int    // number of independent replications (required, > 0)
	Seed         uint64 // master seed
	Tag          uint64 // stream tag separating this study from others on the same seed
}

// Run executes body(rep, r) for every replication index rep in
// [0, Replications), where r is the replication's private PCG substream.
// min(GOMAXPROCS, Replications) workers claim indices from one counter, so
// body runs concurrently with itself and must write only to state owned by
// rep. The substream pointer is only valid for the duration of the call:
// the pool reseeds one PCG value per worker in place, so body must not
// retain r after returning (sources split from r own their own state and
// may outlive the call).
//
// Run returns the first body error if any replication failed, else the
// context's error if the run was cancelled, else nil — so callers always
// see the root cause even when a body error and the resulting pool
// cancellation race. Either condition stops the pool promptly (indices not
// yet claimed are skipped, in-flight replications finish).
func (p Replicated) Run(ctx context.Context, body func(rep int, r *rng.PCG) error) error {
	if p.Replications <= 0 {
		return fmt.Errorf("sim: replications %d must be positive", p.Replications)
	}
	if body == nil {
		return fmt.Errorf("sim: nil pool body")
	}
	// All run state lives in one heap object shared by the workers, and the
	// workers are methods rather than closures: a Run costs one allocation,
	// which matters to callers that execute many small ensembles (scenario
	// grids, benchmarks).
	run := &poolRun{
		replications: p.Replications,
		body:         body,
		ctx:          ctx,
		// Done() is nil for contexts that can never be cancelled
		// (Background), letting the per-replication check skip the Err()
		// call entirely.
		done: ctx.Done(),
	}
	// The master generator is never advanced by the workers: each
	// replication derives its substream from a private copy. SplitN(n)[rep]
	// consumes exactly two parent draws per split, so positioning the copy
	// 2·rep draws ahead (O(log rep) via Jump) and splitting once reproduces
	// the historical up-front materialization bit-for-bit with O(1) setup
	// memory instead of O(Replications) pointers.
	run.base.Seed(p.Seed, p.Tag)
	workers := min(runtime.GOMAXPROCS(0), p.Replications)
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go run.worker()
	}
	run.wg.Wait()
	run.errMu.Lock()
	defer run.errMu.Unlock()
	if run.bodyErr != nil {
		return run.bodyErr
	}
	return ctx.Err()
}

// poolRun is the shared state of one Run call.
type poolRun struct {
	replications int
	base         rng.PCG
	body         func(rep int, r *rng.PCG) error
	ctx          context.Context
	done         <-chan struct{}

	wg      sync.WaitGroup
	errMu   sync.Mutex
	bodyErr error
	stop    atomic.Bool  // set on the first body error
	next    atomic.Int64 // replication claim counter
}

func (run *poolRun) fail(err error) {
	run.errMu.Lock()
	if run.bodyErr == nil {
		run.bodyErr = err
	}
	run.errMu.Unlock()
	run.stop.Store(true)
}

func (run *poolRun) stopped() bool {
	return run.stop.Load() || (run.done != nil && run.ctx.Err() != nil)
}

func (run *poolRun) worker() {
	defer run.wg.Done()
	var stream rng.PCG // reseeded in place per replication
	for {
		rep := int(run.next.Add(1)) - 1
		if rep >= run.replications || run.stopped() {
			return
		}
		cur := run.base
		cur.Jump(2 * uint64(rep))
		cur.SplitInto(uint64(rep), &stream)
		if err := run.body(rep, &stream); err != nil {
			run.fail(err)
			return
		}
	}
}
