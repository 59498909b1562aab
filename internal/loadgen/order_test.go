package loadgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/traffic"
)

// orderCase is one schedule shape TestScheduleOrder and
// TestScheduleWorkerCounts build.
type orderCase struct {
	name string
	cfg  Config
	len  int    // the length wanted: recorded beside hash, or else found by walking seeds
	hash uint64 // scheduleHash of the list, recorded from the bucket-sorted generator before chunking; 0 for none
}

func orderCases() []orderCase {
	base := Config{Seed: 11, Lambda: 30, Hold: 12, SVR: 0.3, TC: 1, Duration: 200}
	with := func(mut func(*Config)) Config {
		c := base
		mut(&c)
		return c
	}
	return []orderCase{
		{"churn", Config{Seed: 1, Lambda: 2000, Hold: 50, SVR: 0.3, TC: 16, Duration: 200, Renegotiate: true}, 1747785, 0x6518a3653f78f393},
		{"lying", with(func(c *Config) { c.Plan = fault.ClientPlan{Lie: 0.5}; c.Renegotiate = true }), 85302, 0x3a4ac0ee4973e96d},
		{"leaking", with(func(c *Config) { c.Plan = fault.ClientPlan{Lie: 1, LeakP: 0.3} }), 10261, 0xb3c96000df3a4527},
		{"flash-crowd", with(func(c *Config) { c.Crowd = Crowd{Factor: 6, From: 40, To: 80} }), 23842, 0x94cb047254558316},
		{"shift", with(func(c *Config) {
			c.ShiftAt, c.ShiftModel, c.Renegotiate = 90, traffic.NewRCBR(1, 0.3, 0.25), true
		}), 187985, 0x0d89dc7ab4406209},
		{"gamma", with(func(c *Config) { c.ArrivalCV = 3; c.Renegotiate = true }), 80023, 0x6c087f42fe4a1a5b},
		{"empty", Config{Lambda: 1, Hold: 1, SVR: 0.3, TC: 1, Duration: 0.5}, 0, 0},
		{"one", Config{Lambda: 1, Hold: 1, SVR: 0.3, TC: 1, Duration: 0.5, Plan: fault.ClientPlan{Lie: 1, LeakP: 1}}, 1, 0},
		{"two", Config{Lambda: 1, Hold: 1, SVR: 0.3, TC: 1, Duration: 0.5}, 2, 0},
	}
}

// TestScheduleOrder is the differential for Schedule's order: its output
// must be exactly what slices.SortFunc with compareEvents makes of the same
// events, the key must be strict (no two events tie on it), sortByTime
// must reach the same list from a shuffled copy, and the list must be the
// one recorded for its shape.
func TestScheduleOrder(t *testing.T) {
	for _, tc := range orderCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Schedule(tc.cfg)
			for seed := tc.cfg.Seed + 1; err == nil && tc.hash == 0 && len(got) != tc.len; seed++ {
				if seed > tc.cfg.Seed+1000 {
					t.Fatalf("no seed gives a %d-event schedule", tc.len)
				}
				tc.cfg.Seed = seed
				got, err = Schedule(tc.cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if h := scheduleHash(got); tc.hash != 0 && (len(got) != tc.len || h != tc.hash) {
				t.Fatalf("%d events hashing to %#016x, want %d hashing to %#016x", len(got), h, tc.len, tc.hash)
			}
			want := slices.Clone(got)
			slices.SortFunc(want, compareEvents)
			for i := 1; i < len(want); i++ {
				if compareEvents(want[i-1], want[i]) >= 0 {
					t.Fatalf("events %d and %d tie on (T, Flow, Kind): %+v, %+v", i-1, i, want[i-1], want[i])
				}
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("Schedule's event %d of %d is %+v, the reference sort's %+v", i, len(got), got[i], want[i])
			}
			shuffled := slices.Clone(got)
			rand.New(rand.NewSource(int64(len(got)))).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			sortByTime(shuffled, sortDepth)
			if i := firstDiff(shuffled, want); i >= 0 {
				t.Fatalf("sorting a shuffled copy: event %d of %d is %+v, want %+v", i, len(got), shuffled[i], want[i])
			}
			if cap(got) != len(got) {
				t.Fatalf("%d events in a list of capacity %d", len(got), cap(got))
			}
		})
	}
}

// TestScheduleWorkerCounts holds Schedule's list independent of how many
// workers count and place its chunks: every shape of TestScheduleOrder,
// and schedules of chunkFlows−1, chunkFlows, chunkFlows+1 and
// 2·chunkFlows+1 flows, give the same list at GOMAXPROCS 1, 2, 3 and 8.
// The straddling schedules are recorded too. Their Durations fall midway
// between two admits of a longer schedule, since a flow's arrival does not
// depend on the Duration after it.
func TestScheduleWorkerCounts(t *testing.T) {
	cases := orderCases()
	long := Config{Seed: 3, Lambda: 100, Hold: 5, SVR: 0.3, TC: 1, Duration: 200, Renegotiate: true}
	ev, err := Schedule(long)
	if err != nil {
		t.Fatal(err)
	}
	arrival := make(map[uint64]float64)
	for _, e := range ev {
		if e.Kind == KindAdmit {
			arrival[e.Flow] = e.T
		}
	}
	for _, s := range []struct {
		flows, len int
		hash       uint64
	}{
		{chunkFlows - 1, 55571, 0x6767d3ee1cb580fb},
		{chunkFlows, 55584, 0x4501630a9f84fa62},
		{chunkFlows + 1, 55603, 0x7828a387802a5194},
		{2*chunkFlows + 1, 112891, 0xf01df4ff9f85aaf6},
	} {
		c := long
		c.Duration = (arrival[uint64(s.flows-1)] + arrival[uint64(s.flows)]) / 2
		cases = append(cases, orderCase{fmt.Sprintf("%d-flows", s.flows), c, s.len, s.hash})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		var first []Event
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := Schedule(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = got
				if h := scheduleHash(got); tc.hash != 0 && (len(got) != tc.len || h != tc.hash) {
					t.Fatalf("%s: %d events hashing to %#016x, want %d hashing to %#016x", tc.name, len(got), h, tc.len, tc.hash)
				}
				continue
			}
			if i := firstDiff(got, first); i >= 0 {
				t.Fatalf("%s at GOMAXPROCS %d: event %d of %d is %+v, at 1 %+v", tc.name, procs, i, len(got), got[i], first[i])
			}
		}
	}
}

// scheduleHash is the FNV-64a of a list's events, each as its T, kind,
// flow and rate in little-endian bytes.
func scheduleHash(ev []Event) uint64 {
	h := fnv.New64a()
	var b [25]byte
	for _, e := range ev {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(e.T))
		b[8] = byte(e.Kind)
		binary.LittleEndian.PutUint64(b[9:], e.Flow)
		binary.LittleEndian.PutUint64(b[17:], math.Float64bits(e.Rate))
		h.Write(b[:])
	}
	return h.Sum64()
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// FuzzTimeSort feeds sortByTime event lists built to tie: a few flows and
// kinds, times from a coarse grid, the ends 0 and fuzzDuration, repeats
// and one-ulp steps of the previous time. The header byte can make every
// time equal (bit 0), lower the depth cap to 1–8 (bits 1–3) and copy the
// list up to 16 times onto fresh flows at the same times (bits 4–7), which
// ties every time across flows and makes runs long enough to bucket. Keys
// that repeat are dropped, as a schedule has none; the result must equal
// slices.SortFunc's with compareEvents.
func FuzzTimeSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xf0, 0, 1, 0, 1, 1, 2, 2, 2, 1, 3, 3, 0, 4, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, depth := fuzzEvents(data)
		want := slices.Clone(ev)
		slices.SortFunc(want, compareEvents)
		sortByTime(ev, depth)
		if i := firstDiff(ev, want); i >= 0 {
			t.Fatalf("event %d of %d is %+v, want %+v", i, len(ev), ev[i], want[i])
		}
	})
}

// FuzzSchedule decodes its input into a small Config (fuzzConfig) and
// holds Schedule to its contract: an invalid Config returns an error and
// never panics or hangs, and a valid one gives the same list at GOMAXPROCS
// 1 and 4, sorted by compareEvents.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 7, 40, 80, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		var got [2][]Event
		var errs [2]error
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got[i], errs[i] = Schedule(cfg)
		}
		switch {
		case (errs[0] == nil) != (errs[1] == nil):
			t.Fatalf("%+v: error %v at GOMAXPROCS 1, %v at 4", cfg, errs[0], errs[1])
		case errs[0] != nil:
			return
		}
		if i := firstDiff(got[0], got[1]); i >= 0 {
			t.Fatalf("%+v: event %d of %d is %+v at GOMAXPROCS 1, %+v at 4", cfg, i, len(got[0]), got[0][i], got[1][i])
		}
		if !slices.IsSortedFunc(got[0], compareEvents) {
			t.Fatalf("%+v: list not sorted by compareEvents", cfg)
		}
	})
}

// fuzzConfig decodes FuzzSchedule's input, one byte a knob, missing bytes
// zero: flags (renegotiate, crowd, shift, on-off model, lie/leak plan, a
// non-finite or non-positive field, large), seed, λ, Duration, Hold, TC,
// arrival CV, crowd factor, window start and length, lie, leak
// probability, shift time, the field and value to break. λ·Duration stays
// below ~530 flows, or ~25 k (three chunks) when large, which turns
// renegotiation off; segments average at least 1/8.
func fuzzConfig(data []byte) Config {
	b := make([]byte, 16)
	copy(b, data)
	flags := b[0]
	frac := func(i int) float64 { return float64(b[i]) / 255 }
	cfg := Config{
		Seed:        uint64(b[1]),
		Lambda:      0.25 + float64(b[2]%64)/8,
		Duration:    1 + float64(b[3])/4,
		Hold:        0.25 + float64(b[4])/16,
		SVR:         0.3,
		TC:          0.25 + float64(b[5])/16,
		ArrivalCV:   float64(b[6]) / 64,
		Renegotiate: flags&1 != 0,
	}
	if flags&2 != 0 {
		from := frac(8) * cfg.Duration
		cfg.Crowd = Crowd{Factor: 1 + float64(b[7])/32, From: from, To: from + frac(9)*cfg.Duration}
	}
	if flags&4 != 0 {
		cfg.ShiftAt, cfg.ShiftModel = frac(12)*cfg.Duration, traffic.NewRCBR(1, 0.3, cfg.TC/2)
	}
	if flags&8 != 0 {
		cfg.Model = traffic.OnOff{PeakRate: 1, OnTime: 0.1 + frac(7), OffTime: 0.1 + frac(12)}
	}
	if flags&16 != 0 {
		cfg.Plan = fault.ClientPlan{Lie: float64(b[10]) / 128, LeakP: float64(b[11]) / 200}
	}
	if flags&32 != 0 {
		v := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}[b[15]%5]
		fields := []*float64{&cfg.Lambda, &cfg.Hold, &cfg.Duration, &cfg.SVR, &cfg.TC,
			&cfg.ArrivalCV, &cfg.Crowd.Factor, &cfg.Crowd.From, &cfg.Crowd.To, &cfg.ShiftAt}
		*fields[int(b[14])%len(fields)] = v
	}
	if flags&64 != 0 {
		cfg.Lambda *= 48
		cfg.Renegotiate = false
	}
	return cfg
}

const fuzzDuration = 100

// fuzzEvents decodes FuzzTimeSort's input: a header byte, then three
// bytes an event (time selector, flow, kind).
func fuzzEvents(data []byte) ([]Event, int) {
	if len(data) == 0 {
		return nil, sortDepth
	}
	head, body := data[0], data[1:]
	depth, copies := 1+int(head>>1&7), 1+int(head>>4)
	var one []Event
	prev := 0.0
	for ; len(body) >= 3; body = body[3:] {
		sel, flow, kind := body[0], body[1], body[2]
		var ts float64
		switch sel % 8 {
		case 0:
			ts = 0
		case 1:
			ts = fuzzDuration
		case 2:
			ts = prev
		case 3:
			ts = math.Nextafter(prev, fuzzDuration)
		case 4, 5:
			ts = fuzzDuration * float64(sel>>3) / 31
		default:
			ts = fuzzDuration * (float64(sel>>3) + float64(flow)/256) / 32
		}
		prev = ts
		one = append(one, Event{T: ts, Kind: Kind(kind % 3), Flow: uint64(flow % 16), Rate: float64(sel)})
	}
	if head&1 != 0 {
		for i := range one {
			one[i].T = prev
		}
	}
	type key struct {
		t    float64
		flow uint64
		kind Kind
	}
	seen := make(map[key]bool)
	var ev []Event
	for c := range copies {
		for _, e := range one {
			e.Flow += 16 * uint64(c)
			if k := (key{e.T, e.Flow, e.Kind}); !seen[k] {
				seen[k] = true
				ev = append(ev, e)
			}
		}
	}
	return ev, depth
}
