package loadgen

import (
	"math"
	"math/bits"
	"slices"
)

// compareEvents is a schedule's order: time, then flow, then kind. It is a
// strict total order on any one schedule — a flow has one admit and one
// depart, and positive segment durations put its updates at distinct
// instants — so every correct sort of a schedule gives the same list. It is
// spelled out rather than built on cmp.Compare, whose NaN handling a
// schedule's finite times never need.
func compareEvents(a, b Event) int {
	switch {
	case a.T != b.T:
		if a.T < b.T {
			return -1
		}
		return 1
	case a.Flow != b.Flow:
		if a.Flow < b.Flow {
			return -1
		}
		return 1
	}
	return int(a.Kind) - int(b.Kind)
}

const (
	// sortRun is the longest run sortByTime leaves to compareEvents.
	sortRun = 48
	// maxFanOut caps the buckets of one distribution pass.
	maxFanOut = 1024
	// sortDepth caps the distribution passes over one run. Times that keep
	// crowding into one narrow bucket are left to compareEvents past it.
	sortDepth = 8
)

// sortByTime orders ev by compareEvents in place. It is an American-flag
// sort on T. One pass maps each time monotonically onto fanOut(len(ev))
// buckets spread over the run's own [min, max], counts them, and swaps every
// event into its bucket along the permutation's cycles. A bucket still
// longer than sortRun is sorted the same way over its own range, at most
// depth passes deep. Short runs are insertion-sorted; runs whose times are
// all equal, or that reach the depth cap, are sorted by compareEvents.
// Schedule calls it on one time bucket at a time, so the cycles it walks
// stay within a run that fits in cache.
//
// A monotone map puts equal times in one bucket and every bucket's times
// below the next bucket's, so the buckets concatenate to exactly the list
// compareEvents sorts to: the algorithm cannot change a schedule.
func sortByTime(ev []Event, depth int) {
	if len(ev) <= sortRun {
		insertionSort(ev)
		return
	}
	lo, hi := ev[0].T, ev[0].T
	for i := range ev {
		lo, hi = min(lo, ev[i].T), max(hi, ev[i].T)
	}
	f := fanOut(len(ev))
	// scale is +Inf when every time is equal and 0 when hi-lo overflows.
	scale := float64(f) / (hi - lo)
	if depth == 0 || !(scale > 0 && scale < math.Inf(1)) {
		slices.SortFunc(ev, compareEvents)
		return
	}
	// (t-lo)*scale is at most f give or take a rounding, so the clamp keeps
	// hi in the last bucket.
	bucket := func(t float64) int { return min(int((t-lo)*scale), f-1) }
	var next, end [maxFanOut]int
	for i := range ev {
		end[bucket(ev[i].T)]++
	}
	sum := 0
	for b := range f {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	// next[b] is the first slot of bucket b not yet holding one of its own
	// events. The event there is carried to the slot next[k] of its own
	// bucket k, and the one displaced from there is carried on, until an
	// event of bucket b closes the cycle.
	for b := range f {
		for i := next[b]; i < end[b]; i = next[b] {
			e := ev[i]
			for k := bucket(e.T); k != b; k = bucket(e.T) {
				j := next[k]
				next[k]++
				ev[j], e = e, ev[j]
			}
			ev[i] = e
			next[b]++
		}
	}
	start := 0
	for b := range f {
		if end[b]-start > 1 {
			sortByTime(ev[start:end[b]], depth-1)
		}
		start = end[b]
	}
}

// fanOut is the bucket count for a run of n events: the power of two at
// or above n/16, capped at maxFanOut, so a pass leaves runs of about 16
// (until n passes 16 k) and a short run walks no more buckets than it
// fills. Schedule sizes its top-level buckets as fanOut(2·flows), two
// events a flow, before it knows the events.
func fanOut(n int) int {
	return min(maxFanOut, max(2, 1<<bits.Len(uint((n+15)/16-1))))
}

// insertionSort orders a short run by compareEvents. It is kept over
// slices.SortFunc for the runs most buckets leave, where a comparator
// called through a func value costs more than the sort: on a 2-core x86
// box BenchmarkSchedule reads 188–244 against 227–263 ns/event at the
// churn shape and 114–158 against 151–171 at the flash-crowd shape (six
// alternating rounds, -cpu 1).
func insertionSort(ev []Event) {
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		j := i
		for ; j > 0 && compareEvents(e, ev[j-1]) < 0; j-- {
			ev[j] = ev[j-1]
		}
		ev[j] = e
	}
}
