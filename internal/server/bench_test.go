package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkServerAdmit measures the serving layer end to end on loopback:
// a pipelined client round of 64 Admit + 64 Depart frames written in one
// burst, responses read back in order. The same 64 flow ids are reused
// every round, so the flow table reaches steady state and the numbers
// isolate the per-decision serving cost rather than table growth.
//
// Reported metrics:
//
//	ns/decision     wall time per admission decision (departs ride along)
//	allocs/decision process-wide heap allocations per decision — the
//	                client side of the loop is allocation-free by
//	                construction (pre-encoded requests, reused Reader),
//	                so this is the server-side budget (target ≤ 2)
//	batch-mean      decisions per AdmitBatch call (>1 = micro-batching
//	                engaged; the 64-admit burst batches as one call)
func BenchmarkServerAdmit(b *testing.B) {
	srv, round := pipelinedRound(b)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)

	decisions := float64(b.N) * servedRound
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/decisions, "ns/decision")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/decisions, "allocs/decision")
	b.ReportMetric(srv.Snapshot().MeanBatch(), "batch-mean")
}

// servedRound is the size of one pipelined round: that many Admit frames,
// then as many Departs for the same flows.
const servedRound = 64

// pipelinedRound starts a loopback server and returns a function that plays
// one round against it — servedRound Admit + servedRound Depart frames
// written in one burst, every response read back. The first round has
// already been played, so the connection scratch and the flow table are
// warm.
func pipelinedRound(tb testing.TB) (*Server, func()) {
	srv, addr := startServer(tb, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Minute))
	rd := wire.NewReader(nc)

	var req []byte
	for i := 0; i < servedRound; i++ {
		req = wire.AppendAdmit(req, uint64(i+1), uint64(i), 1)
	}
	for i := 0; i < servedRound; i++ {
		req = wire.AppendDepart(req, uint64(servedRound+i+1), uint64(i))
	}
	// The client reads responses the way the server reads requests: burst
	// decoders over whatever is buffered, the generic Next only at burst
	// boundaries — so both directions of the measured path are vectorized.
	var (
		f  wire.Frame
		db wire.DecisionBurst
		ab wire.AckBurst
	)
	round := func() {
		if _, err := nc.Write(req); err != nil {
			tb.Fatal(err)
		}
		db.Reset()
		ab.Reset()
		for got := 0; got < 2*servedRound; {
			if n := rd.NextDecisionBurst(&db, 2*servedRound-got); n > 0 {
				got += n
				continue
			}
			if n := rd.NextAckBurst(&ab, 2*servedRound-got); n > 0 {
				got += n
				continue
			}
			if err := rd.Next(&f); err != nil {
				tb.Fatal(err)
			}
			got++
		}
	}
	round()
	return srv, round
}
