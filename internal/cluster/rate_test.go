package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestRateBoundsAgree holds every door a rate comes through to the
// gateway's one definition of a valid rate — gateway.ValidAdmitRate for a
// declaration, gateway.ValidUpdateRate for a measurement: the gateway, the
// cluster, and the served path in front of each. A refused declaration is
// ReasonInvalidRate; a refused update is gateway.ErrInvalidRate, and
// StatusInvalidRate on the wire.
func TestRateBoundsAgree(t *testing.T) {
	cases := []struct {
		name          string
		rate          float64
		admit, update bool
	}{
		{"NaN", math.NaN(), false, false},
		{"-1", -1, false, false},
		{"0", 0, false, true},
		{"+Inf", math.Inf(1), false, false},
		{"MaxRate", gateway.MaxRate, true, true},
		{"above MaxRate", math.Nextafter(gateway.MaxRate, math.Inf(1)), false, false},
	}
	for _, c := range cases {
		if gateway.ValidAdmitRate(c.rate) != c.admit || gateway.ValidUpdateRate(c.rate) != c.update {
			t.Fatalf("%s: predicates (%v, %v), want (%v, %v)", c.name,
				gateway.ValidAdmitRate(c.rate), gateway.ValidUpdateRate(c.rate), c.admit, c.update)
		}
	}

	g, err := gateway.New(testGatewayConfig(t, 1e9, 0))
	if err != nil {
		t.Fatal(err)
	}
	cl := newTestCluster(t, 2, 1e9, Config{})
	type door interface {
		Admit(flowID uint64, rate float64) (gateway.Decision, error)
		UpdateRate(flowID uint64, rate float64) error
	}
	for _, d := range []struct {
		name string
		door door
	}{{"gateway", g}, {"cluster", cl}} {
		for i, c := range cases {
			id := uint64(100 + i)
			dec, err := d.door.Admit(id, c.rate)
			if c.admit != (err == nil && dec.Admitted) || !c.admit && dec.Reason != gateway.ReasonInvalidRate {
				t.Errorf("%s: Admit(%s) = %+v, %v", d.name, c.name, dec, err)
			}
			if _, err := d.door.Admit(200+id, 1); err != nil {
				t.Fatal(err)
			}
			err = d.door.UpdateRate(200+id, c.rate)
			if c.update != (err == nil) || !c.update && !errors.Is(err, gateway.ErrInvalidRate) {
				t.Errorf("%s: UpdateRate(%s) = %v", d.name, c.name, err)
			}
		}
	}

	served := func(cfg server.Config) (net.Conn, *wire.Reader) {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
		})
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return nc, wire.NewReader(nc)
	}
	for _, s := range []struct {
		name string
		cfg  server.Config
	}{{"served gateway", server.Config{Gateway: g}}, {"served cluster", server.Config{Backend: cl}}} {
		nc, rd := served(s.cfg)
		var f wire.Frame
		roundTrip := func(frame []byte) {
			if _, err := nc.Write(frame); err != nil {
				t.Fatal(err)
			}
			if err := rd.Next(&f); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range cases {
			id := uint64(1000 + i)
			roundTrip(wire.AppendAdmit(nil, 1, id, c.rate))
			want := gateway.ReasonInvalidRate
			if c.admit {
				want = gateway.ReasonAdmitted
			}
			if f.Op != wire.OpDecision || f.Decision.Reason != uint8(want) {
				t.Errorf("%s: Admit(%s) answered %v reason %d, want %v", s.name, c.name, f.Op, f.Decision.Reason, want)
			}
			roundTrip(wire.AppendAdmit(nil, 2, 2000+id, 1))
			roundTrip(wire.AppendUpdateRate(nil, 3, 2000+id, c.rate))
			status := wire.StatusInvalidRate
			if c.update {
				status = wire.StatusOK
			}
			if f.Op != wire.OpAck || f.Status != status {
				t.Errorf("%s: UpdateRate(%s) answered %v status %v, want %v", s.name, c.name, f.Op, f.Status, status)
			}
		}
	}
}
