package gateway

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot files")

// fakeClock is a deterministic latency clock: every read advances virtual
// time by step nanoseconds, so each Admit observes exactly one step of
// latency regardless of the machine.
type fakeClock struct{ t, step int64 }

func (c *fakeClock) now() int64 {
	c.t += c.step
	return c.t
}

// scriptedGateway replays a fixed single-goroutine workload against a fully
// instrumented gateway: admissions up to a capacity refusal, a rate
// renegotiation that forces an overflow tick, and a departure. Everything
// it produces — counters, bound, latency histogram, estimate ring, overflow
// window — is a pure function of the script.
func scriptedGateway(tb testing.TB) *Gateway {
	tb.Helper()
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	clk := &fakeClock{step: 250}
	g, err := New(Config{
		Capacity:       10,
		Controller:     ctrl,
		Estimator:      estimator.NewExponential(20),
		Shards:         4,
		LatencyClock:   clk.now,
		EstimateRing:   8,
		OverflowWindow: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// All flows run at exactly rate 1, so once the estimator warms up the
	// measured σ̂ is 0 and the bound settles at c/μ̂ = 10: ten flows fit,
	// the last two are capacity refusals.
	for id := uint64(0); id < 12; id++ {
		if _, err := g.Admit(id, 1.0); err != nil {
			tb.Fatal(err)
		}
		g.Tick(float64(id+1) * 0.5)
	}
	// Renegotiate one flow past the link: subsequent ticks overflow.
	if err := g.UpdateRate(3, 8.0); err != nil {
		tb.Fatal(err)
	}
	g.Tick(7)
	if err := g.Depart(6); err != nil {
		tb.Fatal(err)
	}
	g.Tick(8)
	return g
}

// TestSnapshotGolden locks the full observability surface of the scripted
// workload — the JSON snapshot and its Prometheus rendering — as golden
// files under results/golden/. Any change to metric names, JSON keys, or
// the numeric pipeline shows up as a diff.
func TestSnapshotGolden(t *testing.T) {
	snap := scriptedGateway(t).Snapshot()

	gotJSON, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	var prom bytes.Buffer
	snap.WritePrometheus(&prom)

	dir := filepath.Join("..", "..", "results", "golden")
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"gateway-snapshot.json", gotJSON},
		{"gateway-metrics.prom", prom.Bytes()},
	} {
		path := filepath.Join(dir, f.name)
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (regenerate with `make golden`): %v", err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", f.name, f.got, want)
		}
	}

	// Structural checks that hold regardless of the exact golden bytes.
	if snap.Admitted != 10 || snap.Rejected != 2 || snap.Departed != 1 || snap.Active != 9 {
		t.Errorf("counters = (%d, %d, %d, %d), want (10, 2, 1, 9)",
			snap.Admitted, snap.Rejected, snap.Departed, snap.Active)
	}
	// Window of 4: the last two fill ticks carry ΣX = 10 (not an overflow,
	// the indicator is strict), the two post-renegotiation ticks do.
	if snap.Overflow.Hits != 2 || snap.Overflow.N != 4 {
		t.Errorf("overflow window = %d/%d, want 2/4", snap.Overflow.Hits, snap.Overflow.N)
	}
	if snap.AdmitLatency.Count != 12 {
		t.Errorf("latency count = %d, want 12 decisions", snap.AdmitLatency.Count)
	}
	if len(snap.Estimates) != 8 {
		t.Errorf("estimate ring holds %d points, want 8 (ring capacity)", len(snap.Estimates))
	}
	if snap.Tm != 20 {
		t.Errorf("Tm = %g, want the exponential estimator's 20", snap.Tm)
	}
}

// TestSnapshotDeterministic replays the scripted workload twice with the
// injected clock: the two snapshots must be bit-identical after JSON
// encoding. This is the property the golden test, the figures pipeline, and
// the stat tier all lean on.
func TestSnapshotDeterministic(t *testing.T) {
	encode := func() []byte {
		b, err := json.Marshal(scriptedGateway(t).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Errorf("two identically scripted runs produced different snapshots:\n%s\n%s", a, b)
	}
}

// TestSnapshotConcurrent hammers the full surface at once — admissions,
// departures, renegotiations, measurement ticks, and snapshot readers —
// and is primarily a race-detector test (tier-1.5 runs it under -race).
// While the hammer runs, readers only assert what the weakly-consistent
// contract guarantees; exact invariants are checked after quiescence.
func TestSnapshotConcurrent(t *testing.T) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:       1e9,
		Controller:     ctrl,
		Estimator:      estimator.NewExponential(10),
		Shards:         8,
		EstimateRing:   32,
		OverflowWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 4
		iters   = 2000
		readers = 2
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(w) << 32
			for i := 0; i < iters; i++ {
				id := base + uint64(i)
				if _, err := g.Admit(id, 1.0); err != nil {
					t.Error(err)
					return
				}
				if err := g.UpdateRate(id, 1.5); err != nil {
					t.Error(err)
					return
				}
				if err := g.Depart(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() { // ticker
		defer rwg.Done()
		now := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				now += 0.01
				g.Tick(now)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := g.Snapshot()
				if snap.Admitted < 0 || snap.Rejected < 0 || snap.Departed < 0 {
					t.Error("negative counter in concurrent snapshot")
					return
				}
				if snap.Admitted < snap.Departed {
					t.Errorf("departed %d exceeds admitted %d", snap.Departed, snap.Admitted)
					return
				}
				for _, c := range snap.AdmitLatency.Counts {
					if c < 0 {
						t.Error("negative histogram bucket")
						return
					}
				}
				_ = snap.AdmitLatency.Quantile(0.99)
				snap.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	// Quiescent: every count is exact now.
	snap := g.Snapshot()
	if want := int64(writers * iters); snap.Admitted != want || snap.Departed != want || snap.Active != 0 {
		t.Errorf("quiescent counters = admitted %d departed %d active %d, want %d/%d/0",
			snap.Admitted, snap.Departed, snap.Active, want, want)
	}
	if snap.AdmitLatency.Count != int64(writers*iters) {
		t.Errorf("latency histogram count = %d, want %d", snap.AdmitLatency.Count, writers*iters)
	}
	var bucketSum int64
	for _, c := range snap.AdmitLatency.Counts {
		bucketSum += c
	}
	if bucketSum != snap.AdmitLatency.Count {
		t.Errorf("histogram buckets sum to %d, count says %d", bucketSum, snap.AdmitLatency.Count)
	}
}

// TestAdmitDoesNotAllocate pins the instrumented admission hot path at zero
// heap allocations: the metrics layer must stay wait-free and
// allocation-free or the gateway benchmark regresses.
func TestAdmitDoesNotAllocate(t *testing.T) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  estimator.NewExponential(100),
		Shards:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = uint64(42)
	// Warm the shard map so the measured runs reuse the deleted slot.
	if _, err := g.Admit(id, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := g.Depart(id); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := g.Admit(id, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := g.Depart(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented Admit/Depart allocates %.1f times per op, want 0", allocs)
	}
}
