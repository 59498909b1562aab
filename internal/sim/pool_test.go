package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestReplicatedValidation(t *testing.T) {
	if err := (Replicated{}).Run(context.Background(), func(int, int, *rng.PCG) error { return nil }); err == nil {
		t.Fatal("zero replications: want error")
	}
	if err := (Replicated{Replications: 1}).Run(context.Background(), nil); err == nil {
		t.Fatal("nil body: want error")
	}
}

// TestReplicatedDeterminism checks the pool's core contract: per-stripe
// accumulation merged in stripe order is bit-identical across worker
// counts, because substreams are assigned by replication index and each
// stripe runs sequentially on one worker.
func TestReplicatedDeterminism(t *testing.T) {
	sum := func(workers int) []float64 {
		pool := Replicated{Replications: 500, Workers: workers, Seed: 42, Tag: 7}
		accs := make([]stats.Moments, pool.NumStripes())
		err := pool.Run(context.Background(), func(stripe, rep int, r *rng.PCG) error {
			// A value that depends on both the substream and the index.
			accs[stripe].Add(r.Float64() + float64(rep)*1e-9)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var m stats.Moments
		for s := range accs {
			m.Merge(&accs[s])
		}
		return []float64{m.Mean(), m.Var(), m.Min(), m.Max(), float64(m.N())}
	}
	serial, parallel8, parallel3 := sum(1), sum(8), sum(3)
	for i := range serial {
		if serial[i] != parallel8[i] || serial[i] != parallel3[i] {
			t.Fatalf("worker-count dependence: serial %v, 8 workers %v, 3 workers %v",
				serial, parallel8, parallel3)
		}
	}
}

func TestReplicatedCoversEveryReplication(t *testing.T) {
	const reps = 257 // deliberately not a stripe multiple
	var seen [reps]atomic.Int32
	pool := Replicated{Replications: reps, Seed: 1}
	err := pool.Run(context.Background(), func(stripe, rep int, r *rng.PCG) error {
		if rep%pool.NumStripes() != stripe {
			t.Errorf("rep %d ran on stripe %d", rep, stripe)
		}
		seen[rep].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("replication %d ran %d times", i, got)
		}
	}
}

// TestReplicatedMatchesSplitN pins the lazy-derivation refactor: the
// substream handed to replication rep must be bit-identical to the stream
// the historical up-front materialization rng.New(seed, tag).SplitN(n)[rep]
// produced, for every rep and irrespective of worker count.
func TestReplicatedMatchesSplitN(t *testing.T) {
	const reps = 300
	pool := Replicated{Replications: reps, Workers: 4, Seed: 2024, Tag: 0x706f6f6c}
	want := rng.New(pool.Seed, pool.Tag).SplitN(reps)
	var got [reps][4]uint64
	err := pool.Run(context.Background(), func(stripe, rep int, r *rng.PCG) error {
		for j := range got[rep] {
			got[rep][j] = r.Uint64()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < reps; rep++ {
		for j := range got[rep] {
			if w := want[rep].Uint64(); got[rep][j] != w {
				t.Fatalf("replication %d draw %d: lazy stream diverges from SplitN", rep, j)
			}
		}
	}
}

func TestReplicatedStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Replicated{Replications: 10_000, Seed: 1}.Run(context.Background(),
		func(stripe, rep int, r *rng.PCG) error {
			if ran.Add(1) == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatal("pool did not stop early after the error")
	}
}

// TestReplicatedBodyErrorWinsOverCancellation checks root-cause reporting:
// a body error triggers internal cancellation, and the sibling workers'
// resulting context.Canceled must never mask the real error, no matter how
// the two race. With many workers and a hard error this used to flake to
// context.Canceled under the old fail-on-ctx.Err() pattern.
func TestReplicatedBodyErrorWinsOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		err := Replicated{Replications: 50_000, Workers: 8, Seed: uint64(trial)}.Run(
			context.Background(),
			func(stripe, rep int, r *rng.PCG) error {
				if rep == 1234 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: err = %v, want boom (cancellation masked the root cause)", trial, err)
		}
	}
}

// TestReplicatedExternalCancellationReported checks the complementary leg:
// when no body errored, an external cancellation surfaces as the parent
// context's error rather than nil.
func TestReplicatedExternalCancellationReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the pool even starts
	err := Replicated{Replications: 100, Seed: 1}.Run(ctx,
		func(stripe, rep int, r *rng.PCG) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReplicatedHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Replicated{Replications: 100_000, Seed: 1}.Run(ctx,
		func(stripe, rep int, r *rng.PCG) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 100_000 {
		t.Fatal("pool ran to completion despite cancellation")
	}
}

// TestCollectOrderAndDeterminism: Collect positions results by replication
// index regardless of worker count, and equal seeds give equal outputs.
func TestCollectOrderAndDeterminism(t *testing.T) {
	run := func(workers int) []uint64 {
		out, err := Collect(context.Background(),
			Replicated{Replications: 100, Stripes: 8, Workers: workers, Seed: 5, Tag: 9},
			func(rep int, r *rng.PCG) (uint64, error) {
				return uint64(rep)<<32 | r.Uint64()>>32, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(7)
	for rep, v := range a {
		if int(v>>32) != rep {
			t.Fatalf("result %d landed at index %d", int(v>>32), rep)
		}
		if b[rep] != v {
			t.Fatalf("rep %d differs across worker counts: %x vs %x", rep, v, b[rep])
		}
	}
}

// TestCollectError: a body error discards the partial results.
func TestCollectError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Collect(context.Background(), Replicated{Replications: 10, Seed: 1},
		func(rep int, r *rng.PCG) (int, error) {
			if rep == 3 {
				return 0, boom
			}
			return rep, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil {
		t.Fatalf("partial results leaked: %v", out)
	}
}

// TestForEach: every index runs exactly once, and the first error comes
// back.
func TestForEach(t *testing.T) {
	hits := make([]atomic.Int32, 37)
	if err := ForEach(context.Background(), len(hits), func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
	boom := errors.New("boom")
	err := ForEach(context.Background(), 5, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
