// Command benchmark is the repo's one benchmark: four workloads, one set of
// end-to-end metrics measured with tracing off, and a traced pass that
// attributes the time to layers. See README.md beside this file.
//
//	go run . -workload served-burst            one workload, end-to-end metrics
//	go run . -workload served-burst -trace 1   the traced pass, per-layer metrics
//	go run . -out results.json                 every workload, both passes, one result set
//	go run . -compare a.json b.json            PASS/FAIL of two result sets against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// workload is one named set of inputs and the closed loop that drives the
// program with them. The comment on each says which layers it loads and
// which it bypasses: why it is a workload.
type workload struct {
	name string
	op   string // what one op is, and what its latency samples time
	// drivers is how many load-generating goroutines drive it at
	// parallelism p.
	drivers func(p int) int
	// setup generates the inputs from seed and builds everything before
	// warm-up. With a tracer, the instance records spans into it.
	setup func(seed uint64, p int, tr *tracer) (instance, error)
	// inputHash is the hash of the inputs setup generates from seed.
	inputHash func(seed uint64, p int) (uint64, error)
	// layers fills the per-layer metrics this workload's traced pass
	// measures.
	layers func(t *tracedPass, out metricSet)
}

var workloads = []workload{
	{
		// P raw connections pipelining 64 Admit + 64 Depart per round: wire
		// burst decode, server micro-batching and gateway.AdmitBatch do the
		// work; client, cluster and Tick do none.
		name:    "served-burst",
		op:      "one admission decision; a latency sample is one 128-frame round",
		drivers: func(p int) int { return p },
		setup:   setupBurst,
		inputHash: func(seed uint64, p int) (uint64, error) {
			return genBurst(seed, p).hash(), nil
		},
		layers: burstLayers,
	},
	{
		// The public client, 8 blocking callers per connection walking flow
		// lifecycles against a ticking gateway that refuses 10%: the same
		// wire/server/gateway one frame per syscall, plus client and Tick.
		name:    "served-rpc",
		op:      "one blocking RPC",
		drivers: func(p int) int { return p * callersPerConn },
		setup:   setupRPC,
		inputHash: func(seed uint64, p int) (uint64, error) {
			in, err := genRPC(seed, p)
			return in.hash(), err
		},
		layers: rpcLayers,
	},
	{
		// No sockets: a 100k-resident-flow schedule replayed by P loadgen
		// workers into a 4-instance cluster ticking every 10 ms: gateway
		// table, leases, Tick, cluster placement and pins; wire, server and
		// client do nothing.
		name:    "cluster-churn",
		op:      "one schedule event; a latency sample is one AdmitBatch(16) call in 16",
		drivers: func(p int) int { return p },
		setup:   setupChurn,
		inputHash: func(seed uint64, _ int) (uint64, error) {
			in, err := genChurn(seed)
			return in.hash(), err
		},
		layers: churnLayers,
	},
	{
		// The research path: impulsive ensemble, two sim.Engine runs and one
		// scenario.Run per cycle; the serving layers do nothing except a
		// gateway under a virtual clock.
		name:    "offline-suite",
		op:      "one cycle of the four jobs",
		drivers: func(int) int { return 1 },
		setup:   setupOffline,
		inputHash: func(seed uint64, _ int) (uint64, error) {
			return offlineHash(seed), nil
		},
		layers: offlineLayers,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// parallelism is P: the connections, driver goroutines and GOMAXPROCS of
// every workload. The load is generated inside this process, so it never
// uses more threads than the machine has cores.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed phase
	slices   int
	trace    int
	traceOut string
	out      string
}

// sliceDur is the length of one slice of the timed phase.
func (o options) sliceDur() time.Duration {
	return time.Duration(o.seconds / float64(o.slices) * float64(time.Second)).Round(time.Millisecond)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var compare, printExpected bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&o.slices, "slices", 6, "slices the timed phase is cut into; every timing is the median of the per-slice values")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON")
	flag.StringVar(&o.out, "out", "", "with -workload all, write the result set to this file")
	flag.BoolVar(&compare, "compare", false, "compare two result sets given as arguments against the bounds")
	flag.BoolVar(&printExpected, "print-expected", false, "print offline-suite's cycle-0 statistics for -seed: the content of expected/seed1.json")
	flag.Parse()

	switch {
	case printExpected:
		st, err := offlineCycle0(o.seed)
		if err != nil {
			fatal("%v", err)
		}
		b, _ := json.MarshalIndent(st, "", "  ")
		fmt.Println(string(b))
	case compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		if !compareSets(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
	case o.slices < 1 || o.slices > maxSlices || o.seconds <= 0 || o.trace < 0 || o.trace > 1:
		fatal("need 1 <= -slices <= %d, -seconds > 0 and -trace 0 or 1", maxSlices)
	case o.workload == "all":
		if !runAll(o) {
			os.Exit(1)
		}
	default:
		w := findWorkload(o.workload)
		if w == nil {
			fatal("unknown workload %q", o.workload)
		}
		runtime.GOMAXPROCS(parallelism())
		printEnv()
		var res result
		if o.trace == 1 {
			res = runTraced(w, o)
		} else {
			res = runEndToEnd(w, o)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal("encoding the result: %v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printEnv prints what the numbers below it were measured on.
func printEnv() {
	p := parallelism()
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d P=%d go=%s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), p, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("env: cpu=%q kernel=%s commit=%s\n", cpuModel(), firstLine("/proc/sys/kernel/osrelease"), commit())
	fmt.Printf("env: transport: loopback, same-process (load generator, server and gateway share %d cores)\n", p)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head := firstLine(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = firstLine(".git/" + ref)
	}
	if len(head) < 12 || head == "unknown" {
		return "unknown"
	}
	return head[:12]
}

// report turns a run's violations and counters into its result line.
func report(violations []string, attempted, failed int64, defs []metricDef, values metricSet) result {
	for _, v := range violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	res := result{
		Correct:   len(violations) == 0 && failed == 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res
}

func printSlices(w *workload, stats []sliceStat) {
	fmt.Printf("op: %s\n", w.op)
	fmt.Printf("  %-6s %9s %14s %10s %10s %10s\n", "slice", "wall_s", "ops_per_s", "samples", "p50_us", "p99_us")
	for i, s := range stats {
		fmt.Printf("  %-6d %9.3f %14.1f %10d %10.2f %10.2f\n", i+1, s.Wall.Seconds(), s.opsPerSec(), s.Samples, us(s.P50), us(s.P99))
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runEndToEnd is the untraced run: repeated set-up, warm-up, the timed
// slices, the oracle.
func runEndToEnd(w *workload, o options) result {
	p := parallelism()
	fmt.Printf("workload %s seed %d: %d slices x %v after %v warm-up, tracing off\n", w.name, o.seed, o.slices, o.sliceDur(), size.warmup)
	inst, setupS, err := repeatSetup(func() (instance, error) { return w.setup(o.seed, p, nil) })
	if err != nil {
		return report([]string{"set-up: " + err.Error()}, 1, 1, endToEnd, zeroed(endToEnd))
	}
	stats, rec := runPhase(inst, w.drivers(p), size.warmup, o.slices, o.sliceDur())
	violations := inst.verify()
	inst.close()
	attempted, failed := rec.totals()

	printSlices(w, stats)
	rss, err := peakRSSMB()
	if err != nil {
		violations = append(violations, "peak_rss_mb: "+err.Error())
	}
	values := metricSet{
		"ops_per_s":   medianOf(stats, sliceStat.opsPerSec),
		"op_p99_us":   medianOf(stats, func(s sliceStat) float64 { return us(s.P99) }),
		"peak_rss_mb": rss,
		"setup_s":     setupS,
	}
	fmt.Printf("end-to-end (median of %d slices; bound = share of the parent's median it may worsen by):\n", len(stats))
	for _, d := range endToEnd {
		fmt.Printf("  %-12s %14.4f %-5s better=%-6s bound=%.2f\n", d.Name, values[d.Name], d.Unit, d.Better, d.Bound)
	}
	fmt.Printf("  %-12s %14.4f us    not gated: on served-burst it hops between scheduling modes, see README.md; the traced pass reports process.op_p50_us\n",
		"op_p50_us", medianOf(stats, func(s sliceStat) float64 { return us(s.P50) }))
	fmt.Printf("  %-12s %14.6f       (%d failed of %d attempted; a reject decision is not a failure)\n", "failed_ratio", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	return report(violations, attempted, failed, endToEnd, values)
}

// tracedPass is what a workload's layers function works from.
type tracedPass struct {
	inst      instance // the traced instance, driven and not yet closed
	agg       [numSpanNames]spanAgg
	wall      time.Duration // the traced slices' wall time
	ops       int64         // ops in the traced slices
	mallocs   uint64        // heap allocations during the traced slices
	ledgerDur time.Duration // time a layer may spend on one extra measured pass
}

// runTraced is the traced run: a short untraced reference phase, the same
// workload again with spans recorded, then the workload's stand-alone
// layer measurements. End-to-end numbers never come from here.
func runTraced(w *workload, o options) result {
	p := parallelism()
	total := time.Duration(o.slices) * o.sliceDur()
	refDur, tracedDur := total/5, total*2/5
	warm := size.warmup / 2
	fmt.Printf("workload %s seed %d: traced pass, %v untraced reference then %v traced\n", w.name, o.seed, refDur, tracedDur)
	values := zeroed(perLayer)

	ref, err := w.setup(o.seed, p, nil)
	if err != nil {
		return report([]string{"set-up: " + err.Error()}, 1, 1, perLayer, values)
	}
	refStats, refRec := runPhase(ref, w.drivers(p), warm, 1, refDur)
	violations := ref.verify()
	ref.close()
	attempted, failed := refRec.totals()

	tr := newTracer(1 << 22) // 128 MiB of address space; only the part written becomes resident
	inst, err := w.setup(o.seed, p, tr)
	if err != nil {
		return report(append(violations, "set-up: "+err.Error()), attempted+1, failed+1, perLayer, values)
	}
	// The odometers are read around the whole driven phase, warm-up
	// included, and scaled to the slice: reading them stops the world, so
	// they are not read at the slice's edges while the drivers run.
	heap0, cpu0, t0 := readHeap(), cpuTime(), time.Now()
	stats, rec := runPhase(inst, w.drivers(p), warm, 1, tracedDur)
	heap1, cpu1, driven := readHeap(), cpuTime(), time.Since(t0)
	a, f := rec.totals()
	attempted, failed = attempted+a, failed+f

	spans := tr.spans()
	parent := parents(spans)
	share := float64(stats[0].Wall) / float64(driven)
	t := &tracedPass{
		inst:      inst,
		agg:       aggregate(spans, parent),
		wall:      stats[0].Wall,
		ops:       max(stats[0].Ops, 1),
		mallocs:   uint64(float64(heap1.mallocs-heap0.mallocs) * share),
		ledgerDur: min(time.Second, total/10),
	}
	fmt.Printf("traced: %d spans recorded, %d dropped\n", len(spans), tr.dropped.Load())
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, spans, parent); err != nil {
			violations = append(violations, "writing the trace: "+err.Error())
		}
	}
	values["process.op_p50_us"] = us(stats[0].P50)
	values["process.cpu_ns_per_op"] = float64(cpu1-cpu0) * share / float64(t.ops)
	values["process.gc_pause_ms"] = float64(heap1.pauseNs-heap0.pauseNs) / 1e6
	values["process.tracing_overhead_ratio"] = stats[0].opsPerSec() / refStats[0].opsPerSec()
	w.layers(t, values)
	violations = append(violations, inst.verify()...)
	inst.close()

	fmt.Printf("untraced reference: %.1f op/s; traced: %.1f op/s\n", refStats[0].opsPerSec(), stats[0].opsPerSec())
	fmt.Println("spans (self = span minus the part its children cover):")
	fmt.Printf("  %-22s %10s %12s %14s %14s\n", "name", "calls", "items", "ns/call", "self ns/call")
	for n, a := range t.agg {
		if a.Calls > 0 {
			fmt.Printf("  %-22s %10d %12d %14.1f %14.1f\n", spanNames[n], a.Calls, a.Items, a.perCall(), float64(a.Self)/float64(a.Calls))
		}
	}
	fmt.Println("per-layer (0 = the workload does not execute the layer):")
	for _, d := range perLayer {
		fmt.Printf("  %-40s %16.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	return report(violations, attempted, failed, perLayer, values)
}

// resultSet is what -workload all writes and -compare reads.
type resultSet struct {
	Env       []string                  `json:"env"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// runAll runs every workload, untraced then traced, each in a child
// process of its own so one workload's heap and caches are not the next
// one's, and collects the result lines.
func runAll(o options) bool {
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	set := resultSet{Seed: o.seed, Seconds: o.seconds, Workloads: map[string]workloadResult{}}
	ok := true
	for _, w := range workloads {
		var wr workloadResult
		for trace, dst := range []*result{&wr.EndToEnd, &wr.PerLayer} {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-slices", fmt.Sprint(o.slices), "-trace", fmt.Sprint(trace)}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = &buf
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Println(l)
				if strings.HasPrefix(l, "env: ") && len(set.Env) < 3 {
					set.Env = append(set.Env, strings.TrimPrefix(l, "env: "))
				}
			}
			fmt.Println()
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), dst); err != nil {
				fmt.Printf("%s -trace %d: no result line: %v (%v)\n", w.name, trace, err, runErr)
				ok = false
			} else if runErr != nil || !dst.Correct {
				fmt.Printf("%s -trace %d: FAILED (%d of %d ops failed)\n", w.name, trace, dst.Failed, dst.Attempted)
				ok = false
			}
		}
		set.Workloads[w.name] = wr
	}
	if o.out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal("writing %s: %v", o.out, err)
		}
	}
	return ok
}

func readSet(path string) resultSet {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		fatal("%s: %v", path, err)
	}
	return s
}

// compareSets prints, per workload and end-to-end metric, both values,
// how much worse B is than A as a share of A, and PASS or FAIL against the
// metric's bound.
func compareSets(pathA, pathB string) bool {
	a, b := readSet(pathA), readSet(pathB)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse_by", "bound", "verdict")
	pass := true
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name].EndToEnd, b.Workloads[wl.name].EndToEnd
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if !(worse <= d.Bound) {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-14s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", wl.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if ra.Failed+rb.Failed != 0 || !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-14s %-12s %14d %14d %9s %7s  FAIL\n", wl.name, "failed", ra.Failed, rb.Failed, "", "0")
			pass = false
		}
	}
	return pass
}
