// Package flowtab is the flat flow table behind the gateway's shards and the
// cluster router's pins: open addressing over one slice, linear probing,
// backward-shift deletion. A Table is meant to be embedded by value in the
// struct whose lock guards it, so its header (slice, count, mask, seed)
// shares the cache line that lock was just acquired on and a lookup is two
// lines — the owner's and the slot's — instead of the map header, directory,
// group-table header and control word a Go map walks, each of which every
// insert and delete from another core rewrites.
package flowtab

import "math/rand/v2"

// Mix is the SplitMix64 step (increment plus finalizer): a bijection on
// uint64 that spreads adjacent inputs over all output bits. The gateway and
// the pin table select a shard with it, unseeded; a Table derives slots
// from it, seeded.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// minSlots is the capacity of a table's first allocation (a power of two).
const minSlots = 8

// slotsPerKey is the inverse of the load factor a table grows past: an
// insert that would leave fewer than this many slots per key doubles the
// slice first. A load of one half keeps linear probing short (about 1.5
// slots examined per hit and 2.5 per miss at the limit, against 2.5 and 8.5
// at three quarters) at no resident cost the benchmark resolves:
// cluster-churn's peak RSS read 174 MB against 180 MB with the Go maps this
// replaced, and growing at three quarters moved neither it nor ops_per_s.
const slotsPerKey = 2

type slot[V any] struct {
	key  uint64
	used bool
	val  V
}

// Table maps uint64 keys to values of type V. The zero value is an empty
// table ready for use. A Table is not safe for concurrent use, must not be
// copied after its first Put, and never shrinks (as a Go map does not).
//
// Pointers returned by Get and Put address the slot itself and are valid
// only until the next Put, Delete or DeleteFunc on the table.
type Table[V any] struct {
	slots []slot[V]
	n     int
	mask  uint64 // len(slots) - 1
	// seed perturbs every key before it is mixed. Flow IDs are chosen by
	// network clients and Mix is a fixed, invertible function: unseeded, a
	// client could pick IDs that share one home slot and make every
	// operation on them walk the whole run, under the owner's lock. The
	// seed is drawn once, at the first allocation, from the runtime's
	// ChaCha8 source — the one that seeds Go's maps.
	seed uint64
}

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

// home returns the slot at which key's probe sequence starts.
func (t *Table[V]) home(key uint64) uint64 { return Mix(key^t.seed) & t.mask }

// find returns the index of key's slot, or that of the empty slot that ends
// its probe sequence. The table must have been allocated; its load factor
// guarantees an empty slot.
func (t *Table[V]) find(key uint64) uint64 {
	slots, mask := t.slots, t.mask
	i := t.home(key)
	for slots[i].used && slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// Get returns a pointer to key's value, or nil if key is absent.
func (t *Table[V]) Get(key uint64) *V {
	if t.n == 0 {
		return nil
	}
	if s := &t.slots[t.find(key)]; s.used {
		return &s.val
	}
	return nil
}

// Put returns a pointer to key's value, inserting the zero value first if
// key is absent, and reports whether it inserted.
func (t *Table[V]) Put(key uint64) (*V, bool) {
	if t.slots == nil {
		t.grow()
	}
	s := &t.slots[t.find(key)]
	if s.used {
		return &s.val, false
	}
	if (t.n+1)*slotsPerKey > len(t.slots) {
		t.grow()
		s = &t.slots[t.find(key)]
	}
	s.key, s.used = key, true
	t.n++
	return &s.val, true
}

// grow allocates the table (seeding it) or doubles it, reinserting every
// key at its new home.
func (t *Table[V]) grow() {
	old := t.slots
	if old == nil {
		t.seed = rand.Uint64()
		t.slots = make([]slot[V], minSlots)
	} else {
		t.slots = make([]slot[V], 2*len(old))
	}
	t.mask = uint64(len(t.slots) - 1)
	for i := range old {
		if old[i].used {
			t.slots[t.find(old[i].key)] = old[i]
		}
	}
}

// Delete removes key and returns the value it held, or reports false if key
// is absent.
func (t *Table[V]) Delete(key uint64) (V, bool) {
	var v V
	if t.n == 0 {
		return v, false
	}
	i := t.find(key)
	if !t.slots[i].used {
		return v, false
	}
	v = t.slots[i].val
	t.deleteAt(i)
	return v, true
}

// deleteAt empties slot i by backward shift: each later entry of the run is
// moved into the hole unless its home lies cyclically after the hole (it
// would become unreachable from its home), and the hole moves to where it
// was. No tombstone is left, so probe sequences never lengthen with churn.
func (t *Table[V]) deleteAt(i uint64) {
	for j := (i + 1) & t.mask; t.slots[j].used; j = (j + 1) & t.mask {
		// Distances are cyclic: the entry at j may fill the hole at i when
		// its home is at least as far behind j as i is.
		if (j-t.home(t.slots[j].key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
}

// Range calls fn for every entry, in unspecified order. fn may write
// through v but must not call Put, Delete or DeleteFunc on the table.
func (t *Table[V]) Range(fn func(key uint64, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			fn(s.key, &s.val)
		}
	}
}

// DeleteFunc calls del exactly once for every entry, in unspecified order,
// removing in place those for which it returns true, and returns the number
// removed. It allocates nothing. del may write through v but must not call
// back into the table.
//
// The traversal walks the slots in index order, cyclically, starting just
// past an empty slot, and after a removal examines the same index again.
// That visits every entry once: a backward shift moves entries only
// towards the hole from later in their own run, a run ends at an empty
// slot, and a shift never fills one — so the slot the walk started behind
// stays empty throughout and no shift crosses it. What a removal at index i
// moves was therefore ahead of the walk, and stays ahead of it or lands on
// i itself; nothing already visited moves, and nothing unvisited moves
// behind the walk. (A walk from index 0 would not have this property: a run
// that wraps the end of the slice would hand its visited head back to the
// indices still to come.)
func (t *Table[V]) DeleteFunc(del func(key uint64, v *V) bool) int {
	if t.n == 0 {
		return 0
	}
	start := uint64(0)
	for t.slots[start].used {
		start++
	}
	before := t.n
	for k := uint64(1); k <= t.mask; k++ {
		i := (start + k) & t.mask
		for s := &t.slots[i]; s.used && del(s.key, &s.val); {
			t.deleteAt(i)
		}
	}
	return before - t.n
}
