package loadgen

import (
	"testing"

	"repro/internal/traffic"
)

// scheduleSink keeps the benchmarked schedule alive.
var scheduleSink []Event

// BenchmarkSchedule times Schedule per event at the two ends it serves:
// cluster-churn's 1.75 M-event renegotiating schedule, 49 chunks that
// GOMAXPROCS workers share (run it at -cpu 1,2), and the ~630-event flash
// crowd the offline suite builds every cycle, one chunk generated once,
// inline.
func BenchmarkSchedule(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"churn", Config{Seed: 1, Lambda: 2000, Hold: 50, SVR: 0.3, TC: 16, Duration: 200, Renegotiate: true}},
		{"flash-crowd", Config{Seed: 1, Lambda: 1, Hold: 10, Model: traffic.NewRCBR(1, 0.3, 1), Duration: 120,
			Crowd: Crowd{Factor: 6, From: 40, To: 80}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				ev, err := Schedule(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				scheduleSink, events = ev, events+len(ev)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
