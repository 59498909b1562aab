package sim

import "math"

// The engine's pending events live in three places, and together they fire
// in exactly the order one (t, seq) priority queue of every scheduled event
// would give — seq being the engine's scheduling counter:
//
//   - every live flow's two pending events (segment end, departure) are
//     its entry in the arena's pending column; the flow's leaf in the
//     flowQueue below is keyed by the earlier of the two;
//   - the next Poisson arrival is a scalar on the engine;
//   - the one stale event there is — the segment end a departed flow leaves
//     behind — goes onto the orphan heap (heap.go).
//
// Three invariants carry the equivalence:
//
//   - Order: a key is (time, seq) compared lexicographically (key.before),
//     and no two events share a seq, so equal times — deterministic-duration
//     models, same-instant admissions — fire in scheduling order.
//   - Orphan rule: an orphan is kept iff its time is <= warm-up + MaxTime.
//     It changes no state when it fires, but it is counted (Result.Events,
//     the MaxEvents cut-off); one past the horizon can never fire.
//   - Non-negative keys: a time is stored as its IEEE-754 bit pattern,
//     whose unsigned order is the float order only for times >= +0. The
//     clock starts at 0 and every duration is checked >= 0 (NaN fails the
//     check too) before it is added, so no key is negative, -0 or NaN.

// noEvent is the time key of a leaf with nothing pending. It is above every
// non-negative float's bit pattern, +Inf included.
const noEvent = math.MaxUint64

// timeKey returns t's queue key; t must be >= +0.
func timeKey(t float64) uint64 { return math.Float64bits(t) }

// key is an event's place in the order: its time key, then the seq it was
// scheduled under.
type key struct{ t, seq uint64 }

// before reports whether a fires before b: the one event order. Written so
// that a choice made on it compiles to conditional moves: only equal times
// branch.
func (a key) before(b key) bool {
	less := a.t < b.t
	if a.t == b.t {
		less = a.seq < b.seq
	}
	return less
}

// qnode is one node of the winner tree: the earliest key of the node's
// subtree and the leaf that holds it.
type qnode struct {
	key
	leaf int
}

// flowQueue is a winner (tournament) tree over flow slots: leaf i holds
// slot i's key, every internal node the earlier of its two children, the
// root the earliest of all. Rewriting a leaf replays only its root path —
// log2(n) compare-and-select steps against the unchanged sibling at each
// level, none of which branches on the times — where a heap pops and
// pushes, mispredicting at every level.
type flowQueue struct {
	n    int     // leaves: 0 or a power of two
	node []qnode // node[1] is the root, node[n+i] leaf i; node[0] unused
}

// reset empties the queue, keeping its storage.
func (q *flowQueue) reset() {
	q.n = 0
	q.node = q.node[:0]
}

// grow makes room for at least leaves leaves; the new ones are empty.
func (q *flowQueue) grow(leaves int) {
	if leaves <= q.n {
		return
	}
	n := max(q.n, 1)
	for n < leaves {
		n *= 2
	}
	old := q.node
	if cap(old) >= 2*n {
		q.node = old[:2*n]
	} else {
		q.node = make([]qnode, 2*n)
	}
	copy(q.node[n:], old[q.n:]) // the old leaves, to the front of the new leaf row
	for i := q.n; i < n; i++ {
		q.node[n+i] = qnode{key{t: noEvent}, i}
	}
	for k := n - 1; k >= 1; k-- {
		w := q.node[2*k]
		if r := q.node[2*k+1]; r.before(w.key) {
			w = r
		}
		q.node[k] = w
	}
	q.n = n
}

// set gives leaf i the key k and replays its path to the root.
func (q *flowQueue) set(i int, k key) {
	node := q.node
	j := q.n + i
	w := qnode{k, i}
	node[j] = w
	for j > 1 {
		if s := node[j^1]; s.before(w.key) {
			w = s
		}
		j >>= 1
		node[j] = w
	}
}

// clear leaves leaf i with nothing pending.
func (q *flowQueue) clear(i int) { q.set(i, key{t: noEvent}) }

// min returns the earliest key and its leaf; the key's t is noEvent when no
// leaf has anything pending (leaf and seq are then meaningless).
func (q *flowQueue) min() (leaf int, k key) {
	if q.n == 0 {
		return 0, key{t: noEvent}
	}
	w := &q.node[1]
	return w.leaf, w.key
}
