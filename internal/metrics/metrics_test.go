package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	if g.Load() != 0 {
		t.Fatalf("zero gauge = %v, want 0", g.Load())
	}
	g.Set(86.25)
	if g.Load() != 86.25 {
		t.Fatalf("gauge = %v, want 86.25", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// v <= 1 -> bucket 0 (0.5 and 1), v <= 2 -> bucket 1 (1.5),
	// v <= 4 -> bucket 2 (3), overflow -> bucket 3 (100); NaN dropped.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-12 {
		t.Fatalf("sum = %v, want 106", s.Sum)
	}
	if math.Abs(s.Mean()-21.2) > 1e-12 {
		t.Fatalf("mean = %v, want 21.2", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5)  // bucket 0
		h.Observe(15) // bucket 1
	}
	s := h.Snapshot()
	// Median sits at the bucket boundary; q=0.25 is interpolated inside
	// bucket 0 ([0, 10]).
	if q := s.Quantile(0.25); math.Abs(q-5) > 1e-9 {
		t.Errorf("q25 = %v, want 5", q)
	}
	if q := s.Quantile(1); math.Abs(q-20) > 1e-9 {
		t.Errorf("q100 = %v, want 20", q)
	}
	if q := s.Quantile(0); q < 0 || q > 10 {
		t.Errorf("q0 = %v out of bucket 0", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	// Overflow-bucket quantile clamps to the last bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if q := h2.Snapshot().Quantile(0.99); q != 1 {
		t.Errorf("overflow quantile = %v, want 1", q)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", b, want)
		}
	}
	if db := DefaultLatencyBounds(); len(db) != 15 || db[0] != 250e-9 {
		t.Fatalf("DefaultLatencyBounds = %v", db)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while a
// reader snapshots; run with -race this verifies the lock-free paths, and
// the final totals must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 10))
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if int64(len(s.Counts)) < 0 { // keep the read alive
					t.Error("impossible")
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) / 1000)
			}
		}()
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
	// Sum of 0/1000 .. (workers*per-1)/1000.
	n := float64(workers * per)
	wantSum := n * (n - 1) / 2 / 1000
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if got := r.Snapshot(); len(got) != 0 || r.Len() != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.Push(EstimatePoint{Time: float64(i), Mu: 1, Tm: 10})
	}
	got := r.Snapshot()
	if r.Len() != 3 || len(got) != 3 {
		t.Fatalf("ring len = %d/%d, want 3", r.Len(), len(got))
	}
	for i, want := range []float64{3, 4, 5} {
		if got[i].Time != want {
			t.Fatalf("snapshot order = %v", got)
		}
	}
}

func TestEstimatePointJSONStable(t *testing.T) {
	p := EstimatePoint{Time: 1.5, Mu: 1.01, Sigma: 0.3, OK: true, Tm: 20}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":1.5,"mu":1.01,"sigma":0.3,"ok":true,"tm":20}`
	if string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	WriteCounter(&sb, "mbac_admitted_total", "flows admitted", 42)
	WriteGauge(&sb, "mbac_bound", "published admissible bound", 86.5)
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	WriteHistogram(&sb, "mbac_latency_seconds", "admit latency", h.Snapshot())
	out := sb.String()
	for _, want := range []string{
		"# TYPE mbac_admitted_total counter\nmbac_admitted_total 42\n",
		"# TYPE mbac_bound gauge\nmbac_bound 86.5\n",
		"mbac_latency_seconds_bucket{le=\"1\"} 1\n",
		"mbac_latency_seconds_bucket{le=\"2\"} 2\n",
		"mbac_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"mbac_latency_seconds_sum 11\n",
		"mbac_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultLatencyBounds())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-7
		for pb.Next() {
			h.Observe(v)
			v *= 1.1
			if v > 1e-2 {
				v = 1e-7
			}
		}
	})
}

func TestHistogramObserveN(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.ObserveN(1.5, 3)
	h.ObserveN(100, 2)
	h.ObserveN(0.5, 0)          // dropped: n <= 0
	h.ObserveN(0.5, -4)         // dropped: n <= 0
	h.ObserveN(math.NaN(), 5)   // dropped: NaN
	want := []int64{0, 3, 0, 2} // 1.5 -> bucket 1, 100 -> overflow
	s := h.Snapshot()
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-204.5) > 1e-12 {
		t.Fatalf("sum = %v, want 204.5", s.Sum)
	}

	// ObserveN(v, 1) must be indistinguishable from Observe(v).
	a, b := NewHistogram([]float64{1, 2}), NewHistogram([]float64{1, 2})
	for _, v := range []float64{0.25, 1, 3, 9} {
		a.Observe(v)
		b.ObserveN(v, 1)
	}
	as, bs := a.Snapshot(), b.Snapshot()
	if as.Count != bs.Count || as.Sum != bs.Sum {
		t.Fatalf("ObserveN(v,1) diverges from Observe: %+v vs %+v", as, bs)
	}
	for i := range as.Counts {
		if as.Counts[i] != bs.Counts[i] {
			t.Fatalf("bucket %d: ObserveN %d vs Observe %d", i, bs.Counts[i], as.Counts[i])
		}
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	var c Counter
	var g Gauge
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(3e-7)
		c.Inc()
		g.Set(1.25)
	})
	if allocs != 0 {
		t.Fatalf("hot-path instrumentation allocates %v per op, want 0", allocs)
	}
}
