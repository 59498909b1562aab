package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sizes are the input sizes a run works at. The smoke test swaps in small
// ones; nothing else writes this.
type sizes struct {
	churnLambda float64 // cluster-churn arrival rate; resident flows = churnLambda * churnHold
	tickTables  [3]int  // flow tables behind gateway.tick_us_1k, _100k, _1m
	sweepTable  int     // flow table behind gateway.tick_ttl_sweep_us_100k
	// maxSetups bounds how often a cheap set-up is repeated; a served
	// set-up leaves P sockets in TIME_WAIT each time.
	maxSetups int
	// warmup is driven and not reported before the timed phase (caches,
	// lazy dials, the flow table at its steady state); the traced pass,
	// which reports no end-to-end number, warms up for half of it.
	warmup time.Duration
}

var size = sizes{churnLambda: 2000, tickTables: [3]int{1_000, 100_000, 1_000_000}, sweepTable: 100_000, maxSetups: 200, warmup: 2 * time.Second}

// maxSlices bounds -slices; slot 0 of every per-slice array is the warm-up
// and slot n+1 the cool-down, neither of which is reported.
const maxSlices = 62

// maxSamples bounds the latency samples one driver keeps per slice, so the
// harness's own memory stays a small, fixed part of peak_rss_mb however
// fast the program runs.
const maxSamples = 8192

// driver is one load-generating goroutine's private ledger. Only that
// goroutine writes it while the run is live; the main goroutine reads it
// after drive returns.
type driver struct {
	ops [maxSlices + 2]int64
	// lat holds every stride-th latency of the slice, in ns. When it fills,
	// every other sample is dropped and the stride doubles: what remains is
	// always an evenly spaced subsample of the slice.
	lat       [maxSlices + 2][]uint32
	seen      [maxSlices + 2]uint32
	stride    [maxSlices + 2]uint32
	attempted int64
	failed    int64
	_         [64]byte // keep neighbouring drivers off one cache line
}

// recorder is what a workload's drivers report into.
type recorder struct {
	cur     atomic.Int32 // slice the clock is in now
	stopped atomic.Bool
	drivers []driver
}

func newRecorder(drivers int) *recorder {
	return &recorder{drivers: make([]driver, drivers)}
}

// done records ops completed operations that together took lat, on
// driver d, in whichever slice the clock is in.
func (r *recorder) done(d int, ops int64, lat time.Duration) {
	dr := &r.drivers[d]
	s := r.cur.Load()
	dr.ops[s] += ops
	dr.attempted += ops
	if lat > 0 {
		dr.sample(s, clampNs(lat))
	}
}

func (dr *driver) sample(s int32, lat uint32) {
	if dr.lat[s] == nil {
		dr.lat[s] = make([]uint32, 0, maxSamples)
		dr.stride[s] = 1
	}
	dr.seen[s]++
	if dr.seen[s]%dr.stride[s] != 0 {
		return
	}
	if len(dr.lat[s]) == maxSamples {
		kept := dr.lat[s][:0]
		for i := 1; i < maxSamples; i += 2 { // samples 2, 4, ... of the old stride
			kept = append(kept, dr.lat[s][i])
		}
		dr.lat[s] = kept
		dr.stride[s] *= 2
		if dr.seen[s]%dr.stride[s] != 0 {
			return
		}
	}
	dr.lat[s] = append(dr.lat[s], lat)
}

// count records ops completed operations that were not individually timed.
func (r *recorder) count(d int, ops int64) {
	dr := &r.drivers[d]
	dr.ops[r.cur.Load()] += ops
	dr.attempted += ops
}

// fail records ops attempted operations that errored, were refused, timed
// out or broke a checked invariant.
func (r *recorder) fail(d int, ops int64) {
	r.drivers[d].attempted += ops
	r.drivers[d].failed += ops
}

func clampNs(d time.Duration) uint32 {
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

func (r *recorder) totals() (attempted, failed int64) {
	for i := range r.drivers {
		attempted += r.drivers[i].attempted
		failed += r.drivers[i].failed
	}
	return
}

// sliceStat is one timed slice, merged over the drivers.
type sliceStat struct {
	Wall     time.Duration
	Ops      int64
	Samples  int
	P50, P99 time.Duration
}

func (s sliceStat) opsPerSec() float64 { return float64(s.Ops) / s.Wall.Seconds() }

// notes collects oracle violations from concurrent drivers; past the first
// twenty a failing run only repeats itself.
type notes struct {
	mu   sync.Mutex
	list []string
}

func (n *notes) note(format string, args ...any) {
	n.mu.Lock()
	if len(n.list) < 20 {
		n.list = append(n.list, fmt.Sprintf(format, args...))
	}
	n.mu.Unlock()
}

func (n *notes) lines() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.list...)
}

// instance is one set-up workload, ready to be driven.
type instance interface {
	// drive runs the workload's closed loop on its driver goroutines until
	// rec.stopped, then drains whatever the oracle needs drained and
	// returns once every goroutine it started has exited.
	drive(rec *recorder)
	// verify checks the end-state invariants and returns one line per
	// violation.
	verify() []string
	// close releases sockets and background goroutines.
	close()
}

// runPhase drives inst for warm (unreported) and then n slices of dur,
// returning the per-slice statistics.
func runPhase(inst instance, drivers int, warm time.Duration, n int, dur time.Duration) ([]sliceStat, *recorder) {
	rec := newRecorder(drivers)
	finished := make(chan struct{})
	go func() {
		inst.drive(rec)
		close(finished)
	}()
	time.Sleep(warm)
	walls := make([]time.Duration, n)
	t0 := time.Now()
	for s := 1; s <= n; s++ {
		rec.cur.Store(int32(s))
		time.Sleep(dur)
		t1 := time.Now()
		walls[s-1] = t1.Sub(t0)
		t0 = t1
	}
	rec.cur.Store(int32(n + 1))
	rec.stopped.Store(true)
	<-finished

	stats := make([]sliceStat, n)
	for s := 1; s <= n; s++ {
		st := sliceStat{Wall: walls[s-1]}
		var all []uint32
		for i := range rec.drivers {
			st.Ops += rec.drivers[i].ops[s]
			all = append(all, rec.drivers[i].lat[s]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		st.Samples = len(all)
		st.P50 = time.Duration(quantile(all, 0.50))
		st.P99 = time.Duration(quantile(all, 0.99))
		stats[s-1] = st
	}
	return stats, rec
}

// quantile reads the q-quantile of sorted by linear interpolation.
func quantile[T uint32 | int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianOf applies f to every slice and returns the median.
func medianOf(stats []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(stats))
	for i, s := range stats {
		v[i] = f(s)
	}
	return median(v)
}

// repeatSetup sets the workload up repeatedly — at least 3 times, then
// until a second of set-up time has been spent, at most size.maxSetups —
// closing every instance but the last, and returns that one with the
// median set-up time. A cheap set-up is repeated often because a
// millisecond measured once is mostly scheduling noise: medians of 25
// served-burst set-ups within one process ranged from 0.51 to 0.92 ms,
// medians of 200 from 0.61 to 0.64.
func repeatSetup(setup func() (instance, error)) (instance, float64, error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += d
		if len(times) >= size.maxSetups || len(times) >= 3 && total >= time.Second {
			return inst, median(times), nil
		}
		inst.close()
		// A real run sets up once. Collect the discarded instance now, or
		// how many of them pile up before the collector happens to run
		// decides peak_rss_mb.
		runtime.GC()
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set, from VmHWM in
// /proc/self/status. Not ru_maxrss: Linux carries that across exec, so a
// small process launched by a larger one (a Python driver, say) reports its
// launcher's size, the same number on every run.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// heapCounters is the runtime's allocation and GC-pause odometer.
type heapCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{ms.Mallocs, ms.PauseTotalNs}
}

// timeBatches calls fn(n) for the given number of rounds and returns the
// median time of one of the n operations in nanoseconds.
func timeBatches(rounds, n int, fn func(n int)) float64 {
	per := make([]float64, rounds)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// mix derives an independent 64-bit seed from (seed, tag) with the
// SplitMix64 finalizer, so every generator in the harness draws from its
// own stream of the one -seed.
func mix(seed, tag uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(tag+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sink receives results the timed loops compute, so the compiler cannot
// discard the calls that produced them.
var sink float64
