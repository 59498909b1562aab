package sim

// eventHeap is a plain binary min-heap of keys, the engine's orphan queue:
// the segment ends departed flows left pending. Live flows' events are not
// queued here — they are a column of the arena, ordered by the flowQueue
// (flowqueue.go) — so an orphan needs no flow, kind or epoch: when it fires
// it changes nothing and is only counted, exactly as the engine has always
// counted a departed flow's leftover renegotiation (Result.Events, the
// MaxEvents cut-off). The engine queues an orphan iff its time is <=
// warm-up + MaxTime; a later one could never fire.
//
// The heap takes one push and one pop per departure that leaves a segment
// end inside the horizon, nothing per renegotiation. It avoids
// container/heap to keep interface calls off that path; its storage is
// pooled with the arena.
type eventHeap struct {
	h []key
}

// len returns the number of queued keys.
func (q *eventHeap) len() int { return len(q.h) }

// push inserts a key.
func (q *eventHeap) push(e key) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the earliest key. It panics on an empty heap;
// the engine always checks len first.
func (q *eventHeap) pop() key {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.siftDown(0)
	return top
}

// peek returns the earliest key without removing it.
func (q *eventHeap) peek() key { return q.h[0] }

func (q *eventHeap) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.h[l].before(q.h[smallest]) {
			smallest = l
		}
		if r < n && q.h[r].before(q.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
