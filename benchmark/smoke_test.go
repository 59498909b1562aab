package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain shrinks the inputs: the smoke test checks that every workload
// runs, is correct and emits the declared metrics, not how fast it is.
func TestMain(m *testing.M) {
	size = sizes{churnLambda: 40, tickTables: [3]int{100, 1_000, 10_000}, sweepTable: 1_000, maxSetups: 2, warmup: 50 * time.Millisecond}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json the benchmark's output must match.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestDeclaredMatchesCode: BENCHMARK.json and metrics.go name the same
// workloads and metrics, with the same units, directions and bounds.
func TestDeclaredMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars) against the code's %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code has %d", len(d.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range d.EndToEnd {
		c := endToEnd[i]
		if m.Bound == nil || m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || *m.Bound != c.Bound {
			t.Errorf("end-to-end %d: %+v against the code's %+v", i, m, c)
			continue
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad name, unit %q or bound %v", m.Name, m.Unit, *m.Bound)
		}
		sawSetup = sawSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(d.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code has %d", len(d.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range d.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: %+v against the code's %+v", i, m, c)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %s: bad or repeated name or unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", d.RunSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" || len(d.Command) != 2 || d.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v, paths %v: want the launcher in the one benchmark directory", d.Command, d.Paths)
	}
}

// checkResult asserts one result line: correct, nothing failed, exactly
// the declared metric names, each with its unit.
func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, %d are declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: emitted=%v with unit %q, declared unit %q", d.Name, ok, v.Unit, d.Unit)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("the result does not encode: %v", err)
	}
}

// TestSmoke runs every workload end to end and traced at a fraction of its
// size and length.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 7, seconds: 0.2, slices: 2}
			res := runEndToEnd(w, o)
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if !(res.Metrics[d.Name].Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			traced := runTraced(w, o)
			checkResult(t, traced, perLayer)
			if !(traced.Metrics["process.tracing_overhead_ratio"].Value > 0) {
				t.Error("no tracing overhead ratio")
			}
			var spans []struct {
				ID, Parent int
				Name       string
			}
			b, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace.json: %d spans, %v", len(spans), err)
			}
			checkSeparation(t, w.name, traced)
		})
	}
}

// checkSeparation asserts what makes the workloads different workloads:
// the burst path batches and the RPC path does not, and each workload
// leaves the other side's layers untouched.
func checkSeparation(t *testing.T, name string, traced result) {
	t.Helper()
	v := func(metric string) float64 { return traced.Metrics[metric].Value }
	served := name == "served-burst" || name == "served-rpc"
	switch name {
	case "served-burst":
		if v("server.mean_batch") < 32 {
			t.Errorf("served-burst mean batch %.1f, want >= 32", v("server.mean_batch"))
		}
	case "served-rpc":
		if b := v("server.mean_batch"); b < 1 || b > 4 {
			t.Errorf("served-rpc mean batch %.2f, want in [1, 4]", b)
		}
	}
	for _, d := range perLayer {
		layer, _, _ := strings.Cut(d.Name, ".")
		switch {
		case served && layer == "cluster" && v(d.Name) != 0:
			t.Errorf("%s reports %s = %v: a served workload ran the cluster", name, d.Name, v(d.Name))
		case !served && (layer == "wire" || layer == "server" || layer == "client") && v(d.Name) != 0:
			t.Errorf("%s reports %s = %v: a socketless workload ran the serving layers", name, d.Name, v(d.Name))
		}
	}
}

// TestSeed: the same seed generates byte-identical inputs and identical
// offline statistics; another seed generates different ones.
func TestSeed(t *testing.T) {
	p := parallelism()
	for _, w := range workloads {
		a, err := w.inputHash(11, p)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := w.inputHash(11, p)
		other, _ := w.inputHash(12, p)
		if a != again {
			t.Errorf("%s: seed 11 hashed to %x and then %x", w.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 11 and 12 both hash to %x", w.name, a)
		}
	}
	a, err := offlineCycle0(11)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := offlineCycle0(11)
	other, _ := offlineCycle0(12)
	if a != again {
		t.Errorf("offline cycle 0, seed 11: %+v and then %+v", a, again)
	}
	if a == other {
		t.Errorf("offline cycle 0: seeds 11 and 12 both computed %+v", a)
	}
}

// TestExpectedSeed1: the committed statistics are what seed 1 computes.
func TestExpectedSeed1(t *testing.T) {
	if _, err := setupOffline(1, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTime: a span's self time is its duration minus its children's,
// and spans of other tracks are nobody's children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spRound, Track: 1, Start: 0, End: 100, Count: 64},
		{Name: spWrite, Track: 1, Start: 0, End: 10},
		{Name: spRead, Track: 1, Start: 10, End: 100},
		{Name: spGatewayAdmitBatch, Track: 1, Start: 20, End: 50, Count: 64},
		{Name: spGatewayAdmitBatch, Track: 2, Start: 30, End: 40, Count: 64},
	}
	par := parents(spans)
	if want := []int32{-1, 0, 0, 2, -1}; len(par) != len(want) || par[1] != 0 || par[2] != 0 || par[3] != 2 || par[4] != -1 || par[0] != -1 {
		t.Fatalf("parents = %v, want %v", par, want)
	}
	agg := aggregate(spans, par)
	if agg[spRound].Self != 0 || agg[spRead].Self != 60 || agg[spGatewayAdmitBatch].Self != 40 {
		t.Errorf("self times: round %d, read %d, admit %d; want 0, 60, 40", agg[spRound].Self, agg[spRead].Self, agg[spGatewayAdmitBatch].Self)
	}
	if got := agg[spGatewayAdmitBatch].perItem(); got != 40.0/128 {
		t.Errorf("per item = %v", got)
	}
}

// TestCompare: -compare passes a set against itself and fails one whose
// throughput dropped past the bound.
func TestCompare(t *testing.T) {
	set := resultSet{Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		r := result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		set.Workloads[w.name] = workloadResult{EndToEnd: r}
	}
	dir := t.TempDir()
	write := func(name string, s resultSet) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", set)
	if !compareSets(a, a) {
		t.Error("a set does not pass against itself")
	}
	slow := set.Workloads["served-rpc"]
	slow.EndToEnd.Metrics["ops_per_s"] = metricValue{Value: 60, Unit: "op/s"}
	set.Workloads["served-rpc"] = slow
	if compareSets(a, write("b.json", set)) {
		t.Error("a 40% throughput drop passed the bound")
	}
}

// quartileSpread is (third - first quartile) / median, the quartiles as
// Python's statistics.quantiles(v, n=4) gives them: the driver's measure.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / q(2)
}

// TestBoundsFollowSpread pins every end-to-end bound to the committed
// ten-run set: three times the worst quartile spread over the workloads,
// rounded up to a hundredth, no tighter than 0.10 and no looser than the
// 0.25 cap. setup_s takes the cap whatever it measured.
func TestBoundsFollowSpread(t *testing.T) {
	f, err := os.Open(filepath.Join("baseline", "steadiness.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	values := map[string]map[string][]float64{} // metric -> workload -> the runs' values
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var run struct {
			Workload string
			Result   result
		}
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			t.Fatal(err)
		}
		if !run.Result.Correct || run.Result.Failed != 0 {
			t.Errorf("a committed %s run is not correct", run.Workload)
		}
		for name, v := range run.Result.Metrics {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			values[name][run.Workload] = append(values[name][run.Workload], v.Value)
		}
	}
	for _, d := range endToEnd {
		worst := 0.0
		for _, w := range workloads {
			v := values[d.Name][w.name]
			if len(v) != 10 {
				t.Fatalf("%s on %s: %d committed runs, want 10", d.Name, w.name, len(v))
			}
			spread := quartileSpread(v)
			t.Logf("%-12s %-14s spread %.3f", d.Name, w.name, spread)
			worst = max(worst, spread)
		}
		want := min(max(math.Ceil(300*worst-1e-9)/100, 0.10), 0.25)
		if d.Name == "setup_s" {
			want = 0.25
		}
		if math.Abs(d.Bound-want) > 1e-9 {
			t.Errorf("%s: bound %.2f, the committed runs' worst spread %.3f asks for %.2f", d.Name, d.Bound, worst, want)
		}
	}
}
