package obs

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot files")

// newCluster returns a one-instance cluster: the endpoint serves a fleet,
// and a single gateway is a fleet of one.
func newCluster(tb testing.TB) *cluster.Cluster {
	tb.Helper()
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	var lat atomic.Int64
	return clusterOf(tb, gateway.Config{
		Capacity:     100,
		Controller:   ctrl,
		Estimator:    estimator.NewMemoryless(),
		Shards:       4,
		EstimateRing: 8,
		LatencyClock: func() int64 { return lat.Add(1) },
	})
}

func clusterOf(tb testing.TB, gcfg gateway.Config) *cluster.Cluster {
	tb.Helper()
	cl, err := cluster.New(cluster.Config{Instances: []gateway.Config{gcfg}})
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

func start(tb testing.TB, cfg Config) *Endpoint {
	tb.Helper()
	cfg.Addr = "127.0.0.1:0"
	e, err := Start(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
		if err, ok := <-e.Err(); ok && err != nil {
			tb.Errorf("async serve error: %v", err)
		}
	})
	return e
}

func get(tb testing.TB, e *Endpoint, path string) string {
	tb.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", e.Addr(), path))
	if err != nil {
		tb.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

func TestEndpointRoutes(t *testing.T) {
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	e := start(t, Config{Cluster: newCluster(t), Audit: audit})

	out := get(t, e, "/metrics")
	for _, family := range []string{"mbac_gateway_active", "mbac_cluster_"} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing the %s families:\n%s", family, out)
		}
	}
	var snap gateway.Snapshot
	if err := json.Unmarshal([]byte(get(t, e, "/snapshot")), &snap); err != nil {
		t.Errorf("/snapshot is not a gateway snapshot: %v", err)
	}
	var csnap cluster.Snapshot
	if err := json.Unmarshal([]byte(get(t, e, "/cluster")), &csnap); err != nil {
		t.Errorf("/cluster is not a cluster snapshot: %v", err)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(get(t, e, "/audit")), &rep); err != nil {
		t.Errorf("/audit is not JSON: %v", err)
	} else if _, ok := rep["verdict"]; !ok {
		t.Errorf("/audit report missing verdict: %v", rep)
	}
	if out := get(t, e, "/debug/vars"); !strings.Contains(out, "\"mbac\"") {
		t.Error("/debug/vars missing the mbac expvar")
	}
	get(t, e, "/debug/pprof/")
	get(t, e, "/debug/pprof/cmdline")
}

// TestAuditRouteGradesGatewayWindow: /audit is the audit's grade of
// instance 0's own windowed overflow estimate — the same window /snapshot
// reports — and reads degraded while it serves under its degraded policy,
// whatever the window holds.
func TestAuditRouteGradesGatewayWindow(t *testing.T) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	faulty := fault.Wrap(estimator.NewMemoryless())
	cl := clusterOf(t, gateway.Config{
		Capacity:       100,
		Controller:     ctrl,
		Estimator:      faulty,
		Shards:         4,
		OverflowWindow: 64,
		StaleAfter:     1,
	})
	g := cl.Gateway(0)
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	e := start(t, Config{Cluster: cl, Audit: audit})
	type report struct {
		Estimate stats.WindowedEstimate `json:"estimate"`
		Verdict  string                 `json:"verdict"`
	}
	grade := func(want string) report {
		t.Helper()
		var rep report
		if err := json.Unmarshal([]byte(get(t, e, "/audit")), &rep); err != nil {
			t.Fatalf("/audit is not an audit report: %v", err)
		}
		if snap := g.Snapshot(); rep.Estimate != snap.Overflow {
			t.Errorf("/audit graded %+v, the gateway's window holds %+v", rep.Estimate, snap.Overflow)
		}
		if rep.Verdict != want {
			t.Errorf("/audit verdict %s, want %s (estimate %+v)", rep.Verdict, want, rep.Estimate)
		}
		return rep
	}
	grade(qos.VerdictInsufficient.String())

	for id := uint64(1); id <= 3; id++ {
		if d, err := cl.Admit(id, 1); err != nil || !d.Admitted {
			t.Fatalf("admit %d: %+v, %v", id, d, err)
		}
	}
	now := 0.0
	tick := func(n int) {
		for range n {
			now++
			cl.Tick(now)
		}
	}
	tick(60) // aggregate 3 on a link of 100: no overflow
	if rep := grade(qos.VerdictOK.String()); rep.Estimate.N < 60 || rep.Estimate.Hits != 0 {
		t.Errorf("after 60 quiet ticks the window holds %+v", rep.Estimate)
	}
	if err := cl.UpdateRate(1, 200); err != nil { // aggregate 202: every tick overflows
		t.Fatal(err)
	}
	tick(60)
	if rep := grade(qos.VerdictViolatesSqrt2Law.String()); rep.Estimate.N != 64 || rep.Estimate.Hits != 60 {
		t.Errorf("the 64-tick window holds %+v, want 60 hits", rep.Estimate)
	}

	faulty.SetMode(fault.NaNEstimates)
	tick(1)
	if !g.Snapshot().Degraded {
		t.Fatal("a faulty tick with StaleAfter 1 left the gateway healthy")
	}
	grade(qos.VerdictDegraded.String())
	faulty.SetMode(fault.None)
	tick(1)
	grade(qos.VerdictViolatesSqrt2Law.String())
}

// TestServerRouteCanonicalGolden pins the /server route's byte layout as a
// golden file: keys sorted at every nesting level, so reordering fields in
// server.Snapshot can never silently reshuffle what scrapers see. The
// backing server is idle (never served a connection), which makes every
// counter, histogram, and the empty shard list a pure function of the
// default config.
func TestServerRouteCanonicalGolden(t *testing.T) {
	cl := newCluster(t)
	srv, err := server.New(server.Config{Backend: cl})
	if err != nil {
		t.Fatal(err)
	}
	e := start(t, Config{Cluster: cl, Server: srv})
	got := []byte(get(t, e, "/server"))

	path := filepath.Join("..", "..", "results", "golden", "server-snapshot.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (regenerate with `make golden`): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("/server drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	}

	// Structural check independent of the golden bytes: the body is valid
	// JSON and its top-level keys (indented exactly one level) arrive in
	// sorted order.
	var decoded map[string]any
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("/server body is not JSON: %v", err)
	}
	prev := ""
	nkeys := 0
	for _, line := range strings.Split(string(got), "\n") {
		if !strings.HasPrefix(line, `  "`) || strings.HasPrefix(line, `   `) {
			continue
		}
		key := strings.SplitN(line[3:], `"`, 2)[0]
		if key < prev {
			t.Fatalf("top-level keys out of order: %q after %q", key, prev)
		}
		prev = key
		nkeys++
	}
	if nkeys != len(decoded) {
		t.Fatalf("scanned %d top-level keys, decoder saw %d", nkeys, len(decoded))
	}
}

// TestScrapesRaceTickAndAdmitBatch is the satellite race test: HTTP-level
// Snapshot()/WritePrometheus scrapes through the dedicated server racing
// the cluster's Tick and AdmitBatch. It exists to fail under -race (the
// `make race` tier) if any snapshot path reads hot-path state without
// coordination.
func TestScrapesRaceTickAndAdmitBatch(t *testing.T) {
	cl := newCluster(t)
	e := start(t, Config{Cluster: cl})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // admission load
		defer wg.Done()
		ids := make([]uint64, 16)
		rates := make([]float64, 16)
		dst := make([]gateway.Decision, 0, 16)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range ids {
				ids[j] = i*16 + uint64(j)
				rates[j] = 1
			}
			var err error
			dst, err = cl.AdmitBatch(ids, rates, dst[:0])
			if err != nil {
				t.Error(err)
				return
			}
			for _, id := range ids {
				cl.Depart(id)
			}
		}
	}()
	go func() { // measurement ticks
		defer wg.Done()
		for now := 0.0; ; now += 0.5 {
			select {
			case <-stop:
				return
			default:
				cl.Tick(now)
			}
		}
	}()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		get(t, e, "/metrics")
		get(t, e, "/snapshot")
		get(t, e, "/cluster")
	}
	close(stop)
	wg.Wait()
}

// TestTwoEndpointsOneProcess pins the expvar rebinding: a second Start in
// the same process must not panic on the duplicate "mbac" key, and the
// expvar payload must follow the newest cluster's instance 0.
func TestTwoEndpointsOneProcess(t *testing.T) {
	e1 := start(t, Config{Cluster: newCluster(t)})
	get(t, e1, "/debug/vars")
	e2 := start(t, Config{Cluster: newCluster(t)})
	get(t, e2, "/debug/vars")
}

func TestStartRejectsBadConfig(t *testing.T) {
	if _, err := Start(Config{Addr: "127.0.0.1:0"}); err == nil || err.Error() != "obs: Cluster is required" {
		t.Errorf("missing cluster: %v", err)
	}
	if _, err := Start(Config{Addr: "256.0.0.1:bad", Cluster: newCluster(t)}); err == nil {
		t.Error("unbindable address accepted synchronously")
	}
}

// TestAdaptiveRouteCanonicalGolden pins the /adaptive route's byte layout.
// The controller is warmed by a fixed, deterministic tick sequence — a
// constant aggregate has zero variance, so the ACF readout declines to
// estimate T̂_c and the snapshot is a pure function of the drive loop:
// target settles at T̃_h = Th/√(c/μ̂) = 10 and the regime stays
// "intermediate" with no p_f extrapolation.
func TestAdaptiveRouteCanonicalGolden(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Config{Capacity: 100, Th: 100, PQ: 1e-2, MaxLag: 8, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	tm := 0.5
	for i := 0; i < 320; i++ {
		tm, _ = ctrl.ObserveTick(float64(i)*0.5, 90, 90, 1.0, 0.3, tm)
	}
	e := start(t, Config{Cluster: newCluster(t), Adaptive: []*adaptive.Controller{ctrl}})
	got := []byte(get(t, e, "/adaptive"))

	path := filepath.Join("..", "..", "results", "golden", "adaptive-snapshot.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (regenerate with `make golden`): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("/adaptive drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	}

	var decoded []map[string]any
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("/adaptive body is not a snapshot array: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("want 1 controller snapshot, got %d", len(decoded))
	}
	if out := get(t, e, "/metrics"); !strings.Contains(out, "mbac_adaptive_memory") {
		t.Errorf("/metrics missing adaptive families:\n%s", out)
	}
}

// TestAdaptiveFleetMetrics: more than one controller turns on the
// instance-labelled fleet families.
func TestAdaptiveFleetMetrics(t *testing.T) {
	mk := func() *adaptive.Controller {
		c, err := adaptive.New(adaptive.Config{Capacity: 100, Th: 100, PQ: 1e-2})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	e := start(t, Config{Cluster: newCluster(t), Adaptive: []*adaptive.Controller{mk(), mk()}})
	out := get(t, e, "/metrics")
	for _, want := range []string{
		`mbac_adaptive_instance_memory{instance="0"}`,
		`mbac_adaptive_instance_memory{instance="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
