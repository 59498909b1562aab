package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/rng"
)

// queueKey is one pending key of the oracle.
type queueKey struct {
	t, seq uint64
	leaf   int
}

// queueOracle drives a flowQueue and a sorted slice of the pending keys with
// the same operations and fails the test at the first difference. Like the
// engine it never reuses a seq, so keys are distinct.
type queueOracle struct {
	tb      testing.TB
	q       flowQueue
	at      []queueKey // per leaf; t == noEvent when nothing is pending
	pending []queueKey // ascending (t, seq)
	seq     uint64
}

// find returns k's position in pending, or where it would be inserted.
func (o *queueOracle) find(k queueKey) int {
	return sort.Search(len(o.pending), func(i int) bool {
		p := o.pending[i]
		return p.t > k.t || p.t == k.t && p.seq >= k.seq
	})
}

func (o *queueOracle) grow(leaves int) {
	o.q.grow(leaves)
	for i := len(o.at); i < leaves; i++ {
		o.at = append(o.at, queueKey{t: noEvent, leaf: i})
	}
	o.check()
}

// set gives leaf i the time key t under a fresh seq; t == noEvent clears it.
func (o *queueOracle) set(i int, t uint64) {
	if old := o.at[i]; old.t != noEvent {
		p := o.find(old)
		o.pending = append(o.pending[:p], o.pending[p+1:]...)
	}
	k := queueKey{t: noEvent, leaf: i}
	if t == noEvent {
		o.q.clear(i)
	} else {
		o.seq++
		k.t, k.seq = t, o.seq
		o.q.set(i, key{k.t, k.seq})
		p := o.find(k)
		o.pending = append(o.pending, queueKey{})
		copy(o.pending[p+1:], o.pending[p:])
		o.pending[p] = k
	}
	o.at[i] = k
	o.check()
}

// check compares the queue's winner with the head of the sorted slice.
func (o *queueOracle) check() {
	o.tb.Helper()
	leaf, m := o.q.min()
	if len(o.pending) == 0 {
		if m.t != noEvent {
			o.tb.Fatalf("min = leaf %d (%#x, %d) with nothing pending", leaf, m.t, m.seq)
		}
		return
	}
	if got := (queueKey{m.t, m.seq, leaf}); got != o.pending[0] {
		o.tb.Fatalf("min = %+v, want %+v (%d pending, %d leaves)", got, o.pending[0], len(o.pending), len(o.at))
	}
}

// drain clears the winner until nothing is pending; check holds every step
// to the sorted order.
func (o *queueOracle) drain() {
	for len(o.pending) > 0 {
		o.set(o.pending[0].leaf, noEvent)
	}
}

// testTime draws from a set small enough that equal times are the rule —
// the seq tie-break decides most comparisons — and that holds both ends of
// the key range, +0 and +Inf.
func testTime(i uint64) uint64 {
	if i%8 == 7 {
		return timeKey(math.Inf(1))
	}
	return timeKey(float64(i%8) / 4)
}

// TestFlowQueueDifferential runs random set/clear/grow sequences, the
// pattern of flowtab's TestDifferential: the queue starts empty, grows one
// leaf at a time through every power of two like the engine's arena, and is
// drained to nothing now and then.
func TestFlowQueueDifferential(t *testing.T) {
	const ops, maxLeaves = 1 << 18, 300
	r := rand.New(rand.NewPCG(3, 4))
	o := &queueOracle{tb: t}
	o.check()
	for i := 0; i < ops; i++ {
		switch c := r.Uint64N(16); {
		case len(o.at) == 0 || c == 0 && len(o.at) < maxLeaves:
			o.grow(len(o.at) + 1)
		case c < 10:
			o.set(int(r.Uint64N(uint64(len(o.at)))), testTime(r.Uint64()))
		case c < 15:
			o.set(int(r.Uint64N(uint64(len(o.at)))), noEvent)
		case i%1024 == 0:
			o.drain()
		}
	}
	o.drain()
	if o.q.n != 512 {
		t.Errorf("%d leaves for %d slots", o.q.n, len(o.at))
	}
}

// TestFlowQueueReuse checks that a reset queue regrows clean over its old
// storage, as a pooled arena's does.
func TestFlowQueueReuse(t *testing.T) {
	o := &queueOracle{tb: t}
	o.grow(40)
	for i := 0; i < 40; i++ {
		o.set(i, testTime(uint64(i)))
	}
	o.q.reset()
	*o = queueOracle{tb: t, q: o.q}
	o.check()
	o.grow(5)
	o.set(3, testTime(1))
	o.grow(64)
	o.drain()
}

func FuzzFlowQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0, 0, 1, 2, 0, 2, 2, 0, 3, 7, 2, 1, 0, 3, 9, 0, 1, 8, 0}) // grow, a tie, +Inf, a clear, a second grow
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &queueOracle{tb: t}
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0]%4, int(data[1]), uint64(data[2])
			switch {
			case op == 3 || len(o.at) == 0:
				o.grow(len(o.at) + a%17)
			case op == 2:
				o.set(a%len(o.at), noEvent)
			default:
				o.set(a%len(o.at), testTime(b))
			}
		}
		o.drain()
	})
}

// BenchmarkFlowQueue is the engine's renegotiation step — take the winner,
// give its leaf a later time — at a link's worth of flows and at a size
// past the L1 cache; BenchmarkHeapPushPop runs the same step on the binary
// heap.
func BenchmarkFlowQueue(b *testing.B) {
	for _, n := range []int{200, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var q flowQueue
			r := rng.New(1, 1)
			q.grow(n)
			for i := 0; i < n; i++ {
				q.set(i, key{timeKey(r.Float64() * float64(n)), uint64(i)})
			}
			seq := uint64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leaf, m := q.min()
				seq++
				q.set(leaf, key{timeKey(math.Float64frombits(m.t) + r.Exp(float64(n))), seq})
			}
		})
	}
}
