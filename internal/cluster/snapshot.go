package cluster

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// InstanceSnapshot is one instance's routing-layer view: the scoring
// inputs (bound, active, headroom), the routing state, and the placement
// and migration counters. The instance's full admission-layer snapshot
// stays available via Cluster.Gateway(i).Snapshot().
type InstanceSnapshot struct {
	Index       int     `json:"index"`
	State       string  `json:"state"`
	Degraded    bool    `json:"degraded"`
	Warmed      bool    `json:"warmed"`
	Capacity    float64 `json:"capacity"`
	Bound       float64 `json:"bound"`
	Mu          float64 `json:"mu"` // scoring mean μ̂ (0 before measurement)
	Active      int64   `json:"active"`
	Headroom    float64 `json:"headroom"` // c − M·μ̂ at snapshot time
	Pinned      int64   `json:"pinned"`
	Placements  int64   `json:"placements"`
	MigratedIn  int64   `json:"migrated_in"`
	MigratedOut int64   `json:"migrated_out"`
	Admitted    int64   `json:"admitted"`
	Rejected    int64   `json:"rejected"`
	Departed    int64   `json:"departed"`
	Expired     int64   `json:"expired"`
}

// Snapshot is the cluster's observability view: per-instance routing state
// plus the fleet-level placement, migration and drain counters. It is
// JSON-encodable (the /cluster HTTP payload) and convertible to Prometheus
// text via WritePrometheus.
type Snapshot struct {
	Policy            string             `json:"policy"`
	Instances         []InstanceSnapshot `json:"instances"`
	Pinned            int64              `json:"pinned"`
	Placements        int64              `json:"placements"`
	Migrations        int64              `json:"migrations"`
	MigrationFailures int64              `json:"migration_failures"`
	Drains            int64              `json:"drains"`
}

// Snapshot assembles the cluster observability snapshot. Counters are read
// weakly consistently (the standard metrics contract).
func (c *Cluster) Snapshot() Snapshot {
	snap := Snapshot{
		Policy:            c.cfg.Policy.String(),
		Migrations:        c.migrations.Load(),
		MigrationFailures: c.migrationFailures.Load(),
		Drains:            c.drains.Load(),
	}
	for i, in := range c.instances {
		// The instance's live rows, the flows routed to it: its counters
		// close the lifecycle, Admitted − Departed − Expired.
		st := in.g.Stats()
		pinned := st.Admitted - st.Departed - st.Expired
		isnap := InstanceSnapshot{
			Index:       i,
			State:       InstanceState(in.state.Load()).String(),
			Degraded:    st.Degraded,
			Warmed:      in.warm.Load() >= warmupTicks,
			Capacity:    in.capacity,
			Bound:       st.Admissible,
			Mu:          in.muEff(),
			Active:      st.Active,
			Headroom:    in.headroom(),
			Pinned:      pinned,
			Placements:  st.Admitted - in.migratedIn.Load(),
			MigratedIn:  in.migratedIn.Load(),
			MigratedOut: in.migratedOut.Load(),
			Admitted:    st.Admitted,
			Rejected:    st.Rejected,
			Departed:    st.Departed,
			Expired:     st.Expired,
		}
		snap.Pinned += pinned
		snap.Placements += isnap.Placements
		snap.Instances = append(snap.Instances, isnap)
	}
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the mbac_cluster_* namespace: fleet-level families plus
// per-instance gauges and counters labelled by instance index.
func (s Snapshot) WritePrometheus(w io.Writer) {
	metrics.WriteGauge(w, "mbac_cluster_instances", "gateway instances in the fleet", float64(len(s.Instances)))
	metrics.WriteGauge(w, "mbac_cluster_pinned_flows", "flows pinned to an owning instance", float64(s.Pinned))
	metrics.WriteCounter(w, "mbac_cluster_placements_total", "admissions placed by the router", s.Placements)
	metrics.WriteCounter(w, "mbac_cluster_migrations_total", "flows migrated off draining instances", s.Migrations)
	metrics.WriteCounter(w, "mbac_cluster_migration_failures_total", "migration attempts the fleet had no headroom for", s.MigrationFailures)
	metrics.WriteCounter(w, "mbac_cluster_drains_total", "drain transitions", s.Drains)

	writeInstanceGauge(w, "mbac_cluster_instance_bound", "published admissible count M per instance", s.Instances,
		func(i InstanceSnapshot) float64 { return i.Bound })
	writeInstanceGauge(w, "mbac_cluster_instance_active_flows", "flows currently admitted per instance", s.Instances,
		func(i InstanceSnapshot) float64 { return float64(i.Active) })
	writeInstanceGauge(w, "mbac_cluster_instance_headroom", "placement headroom c - M*mu per instance", s.Instances,
		func(i InstanceSnapshot) float64 { return i.Headroom })
	writeInstanceGauge(w, "mbac_cluster_instance_pinned_flows", "flows pinned per instance", s.Instances,
		func(i InstanceSnapshot) float64 { return float64(i.Pinned) })
	writeInstanceGauge(w, "mbac_cluster_instance_draining", "1 while the instance is draining", s.Instances,
		func(i InstanceSnapshot) float64 { return boolGauge(i.State == StateDraining.String()) })
	writeInstanceGauge(w, "mbac_cluster_instance_degraded", "1 while the instance serves under its degraded policy", s.Instances,
		func(i InstanceSnapshot) float64 { return boolGauge(i.Degraded) })
	writeInstanceCounter(w, "mbac_cluster_instance_placements_total", "admissions placed per instance", s.Instances,
		func(i InstanceSnapshot) int64 { return i.Placements })
	writeInstanceCounter(w, "mbac_cluster_instance_migrated_in_total", "flows migrated onto the instance", s.Instances,
		func(i InstanceSnapshot) int64 { return i.MigratedIn })
	writeInstanceCounter(w, "mbac_cluster_instance_migrated_out_total", "flows migrated off the instance", s.Instances,
		func(i InstanceSnapshot) int64 { return i.MigratedOut })
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeInstanceGauge(w io.Writer, name, help string, ins []InstanceSnapshot, v func(InstanceSnapshot) float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for _, in := range ins {
		fmt.Fprintf(w, "%s{instance=\"%d\"} %g\n", name, in.Index, v(in))
	}
}

func writeInstanceCounter(w io.Writer, name, help string, ins []InstanceSnapshot, v func(InstanceSnapshot) int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, in := range ins {
		fmt.Fprintf(w, "%s{instance=\"%d\"} %d\n", name, in.Index, v(in))
	}
}
