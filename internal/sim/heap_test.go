package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestHeapOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed, 0)
		var q eventHeap
		n := 1 + r.Intn(200)
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			times[i] = r.Float64() * 100
			q.push(key{timeKey(times[i]), uint64(i)})
		}
		sort.Float64s(times)
		for i := 0; i < n; i++ {
			e := q.pop()
			if e.t != timeKey(times[i]) {
				return false
			}
		}
		return q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeapTieBreakBySeq(t *testing.T) {
	var q eventHeap
	q.push(key{timeKey(5), 2})
	q.push(key{timeKey(5), 1})
	q.push(key{timeKey(5), 3})
	for want := uint64(1); want <= 3; want++ {
		if got := q.pop().seq; got != want {
			t.Fatalf("tie break: got seq %d, want %d", got, want)
		}
	}
}

func TestHeapPeek(t *testing.T) {
	var q eventHeap
	q.push(key{t: timeKey(3)})
	q.push(key{t: timeKey(1)})
	if q.peek().t != timeKey(1) {
		t.Errorf("peek = %#x", q.peek().t)
	}
	if q.len() != 2 {
		t.Errorf("peek must not remove: len %d", q.len())
	}
}

// BenchmarkHeapPushPop is BenchmarkFlowQueue's step — take the earliest
// event, schedule a later one — on the binary heap.
func BenchmarkHeapPushPop(b *testing.B) {
	for _, n := range []int{200, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var q eventHeap
			r := rng.New(1, 1)
			for i := 0; i < n; i++ {
				q.push(key{timeKey(r.Float64() * float64(n)), uint64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				e.t = timeKey(math.Float64frombits(e.t) + r.Exp(float64(n)))
				q.push(e)
			}
		})
	}
}
