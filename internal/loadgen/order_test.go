package loadgen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/traffic"
)

// TestScheduleOrder is the differential for Schedule's order: its output
// must be exactly what slices.SortFunc with compareEvents makes of the same
// events, the key must be strict (no two events tie on it), and sortByTime
// must reach the same list from a shuffled copy.
func TestScheduleOrder(t *testing.T) {
	base := Config{Seed: 11, Lambda: 30, Hold: 12, SVR: 0.3, TC: 1, Duration: 200}
	with := func(mut func(*Config)) Config {
		c := base
		mut(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		len  int // the exact length wanted, found by walking seeds; -1 for any
	}{
		{"churn", Config{Seed: 1, Lambda: 2000, Hold: 50, SVR: 0.3, TC: 16, Duration: 200, Renegotiate: true}, -1},
		{"lying", with(func(c *Config) { c.Plan = fault.ClientPlan{Lie: 0.5}; c.Renegotiate = true }), -1},
		{"leaking", with(func(c *Config) { c.Plan = fault.ClientPlan{Lie: 1, LeakP: 0.3} }), -1},
		{"flash-crowd", with(func(c *Config) { c.Crowd = Crowd{Factor: 6, From: 40, To: 80} }), -1},
		{"shift", with(func(c *Config) {
			c.ShiftAt, c.ShiftModel, c.Renegotiate = 90, traffic.NewRCBR(1, 0.3, 0.25), true
		}), -1},
		{"gamma", with(func(c *Config) { c.ArrivalCV = 3; c.Renegotiate = true }), -1},
		{"empty", Config{Lambda: 1, Hold: 1, SVR: 0.3, TC: 1, Duration: 0.5}, 0},
		{"one", Config{Lambda: 1, Hold: 1, SVR: 0.3, TC: 1, Duration: 0.5, Plan: fault.ClientPlan{Lie: 1, LeakP: 1}}, 1},
		{"two", Config{Lambda: 1, Hold: 1, SVR: 0.3, TC: 1, Duration: 0.5}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Schedule(tc.cfg)
			for seed := tc.cfg.Seed + 1; err == nil && tc.len >= 0 && len(got) != tc.len; seed++ {
				if seed > tc.cfg.Seed+1000 {
					t.Fatalf("no seed gives a %d-event schedule", tc.len)
				}
				tc.cfg.Seed = seed
				got, err = Schedule(tc.cfg)
			}
			if err != nil {
				t.Fatal(err)
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
		})
	}
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
