// Package obs serves the observability endpoint: Prometheus text,
// JSON snapshots, the QoS audit report, and the stdlib expvar/pprof
// debug handlers — on a dedicated http.Server with its own ServeMux,
// a ReadHeaderTimeout, and a graceful Shutdown, so the scrape port
// cannot be polluted by default-mux registrations from other packages
// and drains cleanly when its owner exits.
//
// Start binds synchronously (a bad -listen address fails fast, in the
// caller's goroutine) and serves in the background; an asynchronous
// listener failure is delivered on Err rather than killing the process
// from a goroutine, so the owner decides how to react while it serves.
package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/qos"
	"repro/internal/server"
)

// Config parameterizes an observability endpoint.
type Config struct {
	// Addr is the listen address, e.g. ":8080" (required).
	Addr string
	// Cluster is the fleet served (required; a single gateway is a cluster
	// of one). Its mbac_cluster_* families go to /metrics and its routing
	// snapshot to /cluster; instance 0 supplies the admission-layer
	// families of /metrics, /snapshot and the expvar payload.
	Cluster *cluster.Cluster
	// Server, when non-nil, adds the serving-layer families to /metrics
	// and a /server JSON snapshot.
	Server *server.Server
	// Adaptive, when non-empty, adds the mbac_adaptive_* families to
	// /metrics and an /adaptive JSON route with one time-scale controller
	// snapshot per instance. Entry 0 is the primary (conventionally the
	// controller attached to instance 0); with more than one entry the
	// instance-labelled fleet families are emitted as well, indexed in
	// slice order to match the cluster's instance labels.
	Adaptive []*adaptive.Controller
	// Audit, when non-nil, adds the /audit report: the audit's grade of
	// instance 0's own windowed overflow estimate, or VerdictDegraded while
	// instance 0 serves under its degraded policy.
	Audit *qos.Audit
	// ReadHeaderTimeout bounds a client's request header (default 5s) —
	// the slow-loris guard the default mux setup never had.
	ReadHeaderTimeout time.Duration
}

// Endpoint is a running observability server.
type Endpoint struct {
	http *http.Server
	ln   net.Listener
	errc chan error
}

// Start binds cfg.Addr and serves the observability mux in the
// background. The returned Endpoint's Err channel delivers at most one
// asynchronous serve error; Shutdown drains the endpoint gracefully.
func Start(cfg Config) (*Endpoint, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("obs: Cluster is required")
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}
	publishExpvar(cfg.Cluster.Gateway(0))
	e := &Endpoint{
		http: &http.Server{
			Handler:           newMux(cfg),
			ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		},
		ln:   ln,
		errc: make(chan error, 1),
	}
	go func() {
		if err := e.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			e.errc <- fmt.Errorf("obs: serve %s: %w", cfg.Addr, err)
		}
		close(e.errc)
	}()
	return e, nil
}

// Addr returns the bound listen address (useful with ":0").
func (e *Endpoint) Addr() net.Addr { return e.ln.Addr() }

// Err delivers an asynchronous serve failure, then closes. It never
// delivers after a clean Shutdown. Owners poll it (or select on it)
// instead of the old behavior of os.Exit from inside the goroutine.
func (e *Endpoint) Err() <-chan error { return e.errc }

// Shutdown gracefully drains the endpoint: stop accepting, let in-flight
// scrapes finish, bounded by ctx.
func (e *Endpoint) Shutdown(ctx context.Context) error { return e.http.Shutdown(ctx) }

// newMux builds the endpoint's dedicated routing table. Nothing here
// touches http.DefaultServeMux, so a stray default-mux registration
// elsewhere in the binary can never leak onto the scrape port.
func newMux(cfg Config) *http.ServeMux {
	mux := http.NewServeMux()
	g := cfg.Cluster.Gateway(0)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.Snapshot().WritePrometheus(w)
		if cfg.Server != nil {
			cfg.Server.Snapshot().WritePrometheus(w)
		}
		cfg.Cluster.Snapshot().WritePrometheus(w)
		if len(cfg.Adaptive) > 0 {
			cfg.Adaptive[0].Snapshot().WritePrometheus(w)
			if len(cfg.Adaptive) > 1 {
				adaptive.WriteFleetPrometheus(w, adaptiveSnapshots(cfg.Adaptive))
			}
		}
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, g.Snapshot())
	})
	if cfg.Server != nil {
		mux.HandleFunc("/server", func(w http.ResponseWriter, _ *http.Request) {
			writeCanonicalJSON(w, cfg.Server.Snapshot())
		})
	}
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, cfg.Cluster.Snapshot())
	})
	if len(cfg.Adaptive) > 0 {
		mux.HandleFunc("/adaptive", func(w http.ResponseWriter, _ *http.Request) {
			writeCanonicalJSON(w, adaptiveSnapshots(cfg.Adaptive))
		})
	}
	if cfg.Audit != nil {
		mux.HandleFunc("/audit", func(w http.ResponseWriter, _ *http.Request) {
			snap := g.Snapshot()
			rep := cfg.Audit.Evaluate(snap.Overflow)
			if snap.Degraded {
				rep.Verdict = qos.VerdictDegraded
			}
			writeJSON(w, rep)
		})
	}
	// The debug handlers, registered explicitly instead of riding on the
	// side effects of a blank pprof import.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// adaptiveSnapshots materializes one consistent snapshot per controller;
// each controller locks itself, so a scrape racing the tick path sees a
// coherent (if slightly stale) view of every instance.
func adaptiveSnapshots(cs []*adaptive.Controller) []adaptive.Snapshot {
	snaps := make([]adaptive.Snapshot, len(cs))
	for i, c := range cs {
		snaps[i] = c.Snapshot()
	}
	return snaps
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeCanonicalJSON renders v with every object's keys in sorted order,
// independent of struct field declaration order. The /server route uses
// it so scrapers and golden files see a stable layout that survives field
// reordering in server.Snapshot; the other JSON routes keep writeJSON's
// declaration-order bytes, which their own goldens pin.
func writeCanonicalJSON(w http.ResponseWriter, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Round-trip through untyped maps: encoding/json emits map keys
	// sorted, recursively, which is exactly the canonical form.
	var canon any
	if err := json.Unmarshal(raw, &canon); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, canon)
}

// The process-wide expvar key is registered once and rebound per Start,
// because expvar.Publish panics on duplicate keys and tests start many
// endpoints in one process.
var (
	expvarMu   sync.Mutex
	expvarGw   *gateway.Gateway
	expvarOnce sync.Once
)

func publishExpvar(g *gateway.Gateway) {
	expvarMu.Lock()
	expvarGw = g
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("mbac", expvar.Func(func() any {
			expvarMu.Lock()
			gw := expvarGw
			expvarMu.Unlock()
			if gw == nil {
				return nil
			}
			return gw.Snapshot()
		}))
	})
}
