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
//   - Order: a key is (time, seq) compared lexicographically, and no two
//     events share a seq, so equal times — deterministic-duration models,
//     same-instant admissions — fire in scheduling order.
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

// keyBefore reports whether key (t1, s1) fires before key (t2, s2).
func keyBefore(t1, s1, t2, s2 uint64) bool {
	return t1 < t2 || t1 == t2 && s1 < s2
}

// qnode is one node of the winner tree: the earliest key of the node's
// subtree and the leaf that holds it.
type qnode struct {
	t, seq uint64
	leaf   int
}

// earlier returns whichever of two nodes holds the earlier key. Written so
// that the choice compiles to conditional moves: only equal times branch.
func earlier(a, b qnode) qnode {
	less := b.t < a.t
	if b.t == a.t {
		less = b.seq < a.seq
	}
	if less {
		a = b
	}
	return a
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
		q.node[n+i] = qnode{t: noEvent, leaf: i}
	}
	for k := n - 1; k >= 1; k-- {
		q.node[k] = earlier(q.node[2*k], q.node[2*k+1])
	}
	q.n = n
}

// set gives leaf i the key (t, seq) and replays its path to the root.
func (q *flowQueue) set(i int, t, seq uint64) {
	node := q.node
	k := q.n + i
	w := qnode{t: t, seq: seq, leaf: i}
	node[k] = w
	for k > 1 {
		w = earlier(w, node[k^1])
		k >>= 1
		node[k] = w
	}
}

// clear leaves leaf i with nothing pending.
func (q *flowQueue) clear(i int) { q.set(i, noEvent, 0) }

// min returns the earliest key and its leaf; t is noEvent when no leaf has
// anything pending (leaf and seq are then meaningless).
func (q *flowQueue) min() (leaf int, t, seq uint64) {
	if q.n == 0 {
		return 0, noEvent, 0
	}
	w := &q.node[1]
	return w.leaf, w.t, w.seq
}
