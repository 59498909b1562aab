package flowtab

import (
	"math/rand/v2"
	"testing"
)

// oracle drives a Table and a Go map with the same operations and fails the
// test at the first difference.
type oracle struct {
	tb  testing.TB
	tab Table[uint64]
	ref map[uint64]uint64
}

func newOracle(tb testing.TB) *oracle {
	return &oracle{tb: tb, ref: make(map[uint64]uint64)}
}

func (o *oracle) put(key, val uint64) {
	o.tb.Helper()
	p, inserted := o.tab.Put(key)
	if _, had := o.ref[key]; inserted == had {
		o.tb.Fatalf("Put(%#x) inserted = %v with the key present = %v", key, inserted, had)
	}
	if inserted && *p != 0 {
		o.tb.Fatalf("Put(%#x) inserted a non-zero value %d", key, *p)
	}
	*p = val
	o.ref[key] = val
	if q := o.tab.Get(key); q != p {
		o.tb.Fatalf("Get(%#x) = %p, not the slot %p Put returned", key, q, p)
	}
}

func (o *oracle) get(key uint64) {
	o.tb.Helper()
	want, had := o.ref[key]
	p := o.tab.Get(key)
	if (p != nil) != had || (had && *p != want) {
		o.tb.Fatalf("Get(%#x) = %v, want %d present %v", key, p, want, had)
	}
}

func (o *oracle) del(key uint64) {
	o.tb.Helper()
	want, had := o.ref[key]
	got, ok := o.tab.Delete(key)
	if ok != had || got != want {
		o.tb.Fatalf("Delete(%#x) = %d, %v; want %d, %v", key, got, ok, want, had)
	}
	delete(o.ref, key)
}

// sweep removes every entry pred selects, from both sides, and checks that
// DeleteFunc offered each entry exactly once with its value.
func (o *oracle) sweep(pred func(key uint64) bool) {
	o.tb.Helper()
	seen := make(map[uint64]bool, len(o.ref))
	removed := o.tab.DeleteFunc(func(key uint64, v *uint64) bool {
		if seen[key] {
			o.tb.Fatalf("DeleteFunc visited %#x twice", key)
		}
		seen[key] = true
		if want, had := o.ref[key]; !had || *v != want {
			o.tb.Fatalf("DeleteFunc visited %#x = %d; want %d present %v", key, *v, want, had)
		}
		return pred(key)
	})
	if len(seen) != len(o.ref) {
		o.tb.Fatalf("DeleteFunc visited %d of %d entries", len(seen), len(o.ref))
	}
	want := 0
	for key := range o.ref {
		if pred(key) {
			delete(o.ref, key)
			want++
		}
	}
	if removed != want {
		o.tb.Fatalf("DeleteFunc removed %d entries, want %d", removed, want)
	}
	o.check()
}

// check compares the whole table with the map: Len, Range coverage, and a
// Get of every key.
func (o *oracle) check() {
	o.tb.Helper()
	if o.tab.Len() != len(o.ref) {
		o.tb.Fatalf("Len = %d, want %d", o.tab.Len(), len(o.ref))
	}
	seen := make(map[uint64]bool, len(o.ref))
	o.tab.Range(func(key uint64, v *uint64) {
		if want, had := o.ref[key]; !had || *v != want || seen[key] {
			o.tb.Fatalf("Range visited %#x = %d (again: %v); want %d present %v", key, *v, seen[key], want, had)
		}
		seen[key] = true
	})
	if len(seen) != len(o.ref) {
		o.tb.Fatalf("Range visited %d of %d entries", len(seen), len(o.ref))
	}
	for key := range o.ref {
		o.get(key)
	}
}

// testKey spreads a small index over the key space, keeping the two
// extremes: 0 (the key of an empty slot) and ^0.
func testKey(i uint64) uint64 {
	switch i {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	}
	return Mix(i)
}

// TestDifferential runs over a million random operations on a key range
// small enough that the table fills, drains and wraps its slice many times
// over, so backward-shift deletion meets every arrangement of runs.
func TestDifferential(t *testing.T) {
	const ops, keys = 1 << 20, 600
	r := rand.New(rand.NewPCG(1, 2))
	o := newOracle(t)
	for i := 0; i < ops; i++ {
		key := testKey(r.Uint64N(keys))
		switch r.Uint64N(8) {
		case 0, 1, 2:
			o.put(key, r.Uint64())
		case 3, 4:
			o.get(key)
		default: // deletes outnumber puts of new keys, so the table drains too
			o.del(key)
		}
		if i%(1<<16) == 0 {
			o.check()
		}
	}
	o.check()
	if len(o.tab.slots) >= 4*keys {
		t.Fatalf("%d slots for at most %d keys: the table grew without need", len(o.tab.slots), keys)
	}
}

func TestZeroValue(t *testing.T) {
	var tab Table[int32]
	if tab.Len() != 0 || tab.Get(7) != nil {
		t.Fatal("the zero Table is not empty")
	}
	if _, ok := tab.Delete(7); ok {
		t.Fatal("Delete on the zero Table reported a key")
	}
	tab.Range(func(uint64, *int32) { t.Fatal("Range on the zero Table visited an entry") })
	if n := tab.DeleteFunc(func(uint64, *int32) bool { return true }); n != 0 {
		t.Fatalf("DeleteFunc on the zero Table removed %d", n)
	}
	// Growth from nothing, through every doubling, keeps every key.
	const n = 10000
	for i := uint64(0); i < n; i++ {
		p, inserted := tab.Put(i)
		if !inserted {
			t.Fatalf("Put(%d) found the key", i)
		}
		*p = int32(i)
	}
	for i := uint64(0); i < n; i++ {
		if p := tab.Get(i); p == nil || *p != int32(i) {
			t.Fatalf("Get(%d) = %v after growth", i, p)
		}
	}
	if tab.Len() != n || len(tab.slots) < 2*n || len(tab.slots) > 4*n {
		t.Fatalf("Len %d in %d slots after %d inserts", tab.Len(), len(tab.slots), n)
	}
}

// TestDeleteFunc is the sweep differential: random predicates, everything,
// nothing, and a run that wraps the end of the slice — the arrangement in
// which a walk from index 0 would meet an entry twice.
func TestDeleteFunc(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for round := 0; round < 200; round++ {
		o := newOracle(t)
		n := 1 + r.Uint64N(300)
		for i := uint64(0); i < n; i++ {
			o.put(testKey(r.Uint64N(400)), i)
		}
		switch round % 4 {
		case 0:
			o.sweep(func(uint64) bool { return true })
			if o.tab.Len() != 0 {
				t.Fatalf("%d entries survive a sweep of everything", o.tab.Len())
			}
		case 1:
			o.sweep(func(uint64) bool { return false })
		default:
			m, k := 2+r.Uint64N(5), r.Uint64N(2)
			o.sweep(func(key uint64) bool { return key%m <= k })
		}
	}

	// One run across the wrap: keys whose home is one of the last two
	// slots, enough of them to spill over the end into the first slots.
	o := newOracle(t)
	o.put(testKey(0), 0) // allocate, so the seed and mask exist
	o.del(testKey(0))
	var wrapped []uint64
	for k := uint64(2); len(wrapped) < 4; k++ {
		if o.tab.home(k) >= o.tab.mask-1 {
			wrapped = append(wrapped, k)
		}
	}
	for mask := 0; mask < 1<<len(wrapped); mask++ {
		for i, k := range wrapped {
			o.put(k, uint64(i))
		}
		if !o.tab.slots[0].used || !o.tab.slots[o.tab.mask].used {
			t.Fatal("the run does not wrap the end of the slice")
		}
		remove := make(map[uint64]bool)
		for i, k := range wrapped {
			remove[k] = mask>>i&1 == 1
		}
		o.sweep(func(key uint64) bool { return remove[key] })
		o.sweep(func(uint64) bool { return true })
	}
}

// unmix inverts Mix. x ^= x>>k is undone by x ^= x>>k ^ x>>2k (3k > 64
// here), and a multiplication by an odd constant by its inverse mod 2^64.
func unmix(z uint64) uint64 {
	inverse := func(a uint64) uint64 {
		inv := a // correct to 3 bits; each Newton step doubles them
		for i := 0; i < 5; i++ {
			inv *= 2 - a*inv
		}
		return inv
	}
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z - 0x9e3779b97f4a7c15
}

// longestProbe inserts keys and returns the longest probe sequence in the
// result: the most slots any Get of a present key examines. With zeroSeed
// the table is allocated and then stripped of its seed.
func longestProbe(keys []uint64, zeroSeed bool) int {
	var tab Table[struct{}]
	if zeroSeed {
		tab.grow()
		tab.seed = 0
	}
	for _, k := range keys {
		tab.Put(k)
	}
	longest := uint64(0)
	for _, k := range keys {
		if d := (tab.find(k) - tab.home(k)) & tab.mask; d >= longest {
			longest = d + 1
		}
	}
	return int(longest)
}

// TestFlood: flow IDs come from network clients, and Mix is public and
// invertible, so a client can choose IDs that all start their probe at one
// slot of an unseeded table — every operation on them would then walk the
// whole run under the shard lock. The per-table seed is what makes that
// construction worthless; the test builds it and checks both halves.
func TestFlood(t *testing.T) {
	const n = 4096
	const finalBits = 13 // n keys at half load end up in 2n = 1<<13 slots
	random := make([]uint64, n)
	flood := make([]uint64, n)
	r := rand.New(rand.NewPCG(5, 6))
	for i := range flood {
		random[i] = r.Uint64()
		// Every Mix(flood[i]) has the same low finalBits bits, so the same
		// home at the final capacity and at every smaller one on the way.
		flood[i] = unmix(uint64(i)<<finalBits | 0x155)
		if got := Mix(flood[i]) & (1<<finalBits - 1); got != 0x155 {
			t.Fatalf("unmix is not Mix's inverse: low bits %#x", got)
		}
	}
	base := longestProbe(random, false)
	if got := longestProbe(flood, true); got < n {
		t.Fatalf("without a seed the flood's longest probe is %d, want %d: the test's construction is broken", got, n)
	}
	if got, limit := longestProbe(flood, false), 4*base+16; got > limit {
		t.Fatalf("seeded table: the flood's longest probe is %d slots against %d for random IDs (limit %d)", got, base, limit)
	}
}

// FuzzTable reads an operation stream from bytes — three per operation:
// kind, key index, value — and runs it against the map oracle.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 3, 0, 0, 2, 1, 0}) // both extreme keys, a delete, a lookup
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newOracle(t)
		for ; len(data) >= 3; data = data[3:] {
			key, val := testKey(uint64(data[1])), uint64(data[2])
			switch data[0] % 8 {
			case 0, 1, 2:
				o.put(key, val)
			case 3:
				o.get(key)
			case 4, 5:
				o.del(key)
			case 6:
				m := val%5 + 1
				o.sweep(func(k uint64) bool { return k%m == 0 })
			case 7:
				o.check()
			}
		}
		o.check()
	})
}
