package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanName identifies the boundary a span was recorded at. Names are
// <module>.<call>; harness.* spans are the benchmark's own code.
type spanName uint8

const (
	spRound spanName = iota // one served-burst round, write to last reply
	spWrite                 // nc.Write of the pre-encoded round
	spRead                  // reading and burst-decoding the replies
	spRPC                   // one client RPC
	spGatewayAdmitBatch
	spGatewayDepartBatch
	spGatewayUpdateRate
	spGatewayTouch
	spClusterAdmitBatch
	spCycle // one offline-suite cycle
	spSimImpulsive
	spSimEngineChurn
	spSimEngineRCBR
	spScenarioRun
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"harness.round", "harness.write", "harness.read", "client.rpc",
	"gateway.AdmitBatch", "gateway.DepartBatch", "gateway.UpdateRate", "gateway.Touch",
	"cluster.AdmitBatch",
	"harness.cycle", "sim.RunImpulsive", "sim.Engine.churn", "sim.Engine.rcbr", "scenario.Run",
}

// span is one timed call. Track is the op-id spans of one request share —
// the connection, caller, worker or cycle that caused the call — and
// Count the items the call carried (its batch size).
type span struct {
	Name       spanName
	Track      uint32
	Count      int32
	Start, End int64 // ns since the tracer's epoch
}

// tracer is the in-memory span buffer of a traced pass. It is
// preallocated; recording is one atomic add and one store, and a full
// buffer drops (and counts) rather than grows. A nil tracer records
// nothing, which is how the untraced phase runs the same driver code.
type tracer struct {
	epoch   time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name spanName, track uint32, start, end int64, count int) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{Name: name, Track: track, Count: int32(count), Start: start, End: end}
}

// reset empties the buffer for another pass; no recorder may be live.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
}

func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// spanAgg sums one span name.
type spanAgg struct {
	Calls int64
	Items int64
	Dur   int64   // ns, whole span
	Self  int64   // ns, span minus the part its children cover
	durs  []int64 // every duration, for percentiles
}

func (a spanAgg) perItem() float64 {
	if a.Items == 0 {
		return 0
	}
	return float64(a.Dur) / float64(a.Items)
}

func (a spanAgg) perCall() float64 {
	if a.Calls == 0 {
		return 0
	}
	return float64(a.Dur) / float64(a.Calls)
}

func (a spanAgg) p(q float64) float64 {
	s := append([]int64(nil), a.durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, q)
}

// parents finds each span's parent: the innermost span of the same track
// that encloses it (-1 for a root), by a sweep over each track in start
// order.
func parents(spans []span) []int32 {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Track != y.Track {
			return x.Track < y.Track
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End // the enclosing span first
	})
	parent := make([]int32, len(spans))
	var stack []int32
	for k, i := range order {
		s := &spans[i]
		if k > 0 && spans[order[k-1]].Track != s.Track {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return parent
}

// aggregate sums the spans by name; a span's self time is its duration
// minus its direct children's.
func aggregate(spans []span, parent []int32) [numSpanNames]spanAgg {
	var agg [numSpanNames]spanAgg
	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		a := &agg[s.Name]
		a.Calls++
		a.Items += int64(s.Count)
		a.Dur += d
		a.Self += d
		a.durs = append(a.durs, d)
		if p := parent[i]; p >= 0 {
			agg[spans[p].Name].Self -= d
		}
	}
	return agg
}

// writeTrace writes the spans as a JSON array, one object per span; id is
// the span's index and parent the id of the span that caused it.
func writeTrace(path string, spans []span, parent []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"op":%d,"count":%d,"start_ns":%d,"end_ns":%d}%s`+"\n",
			i, spanNames[s.Name], parent[i], s.Track, s.Count, s.Start, s.End, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
