package cluster

import "sync"

// pinTable maps flow ID → owning instance index, sharded by the same
// SplitMix64 finalizer the gateway uses for its flow table so adjacent IDs
// spread across lock domains. A pin is written where the flow is placed
// (putIfAbsent), rewritten by migration (set), and removed in one way
// (delIf) wherever the flow ends. No pin-shard lock is ever held across a
// call into a gateway; the expiry report runs the other way, gateway shard
// lock first, pin shard lock inside it.
type pinTable struct {
	shards [pinShards]pinShard
}

// pinShards is the number of lock shards (a power of two).
const pinShards = 64

type pinShard struct {
	mu sync.Mutex
	m  map[uint64]int32
	_  [40]byte // keep shards on separate cache lines
}

func (t *pinTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]int32)
	}
}

// pinMix is the SplitMix64 finalizer (the gateway's shardIndex mix).
func pinMix(id uint64) uint64 {
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *pinTable) shardFor(id uint64) *pinShard {
	return &t.shards[pinMix(id)%pinShards]
}

// get returns the pinned instance for id.
func (t *pinTable) get(id uint64) (int, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	idx, ok := s.m[id]
	s.mu.Unlock()
	return int(idx), ok
}

// putIfAbsent pins id to idx unless a pin already exists, returning the
// winning instance and whether this call inserted it — racing placements
// of the same flow agree on one owner, and only the inserting caller may
// roll its tentative pin back.
func (t *pinTable) putIfAbsent(id uint64, idx int) (int, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	if cur, ok := s.m[id]; ok {
		s.mu.Unlock()
		return int(cur), false
	}
	s.m[id] = int32(idx)
	s.mu.Unlock()
	return idx, true
}

// set pins id to idx unconditionally (the migration repin).
func (t *pinTable) set(id uint64, idx int) {
	s := t.shardFor(id)
	s.mu.Lock()
	s.m[id] = int32(idx)
	s.mu.Unlock()
}

// delIf removes id's pin only while it still points at idx, so a stale
// unpin never clobbers a concurrent re-placement.
func (t *pinTable) delIf(id uint64, idx int) {
	s := t.shardFor(id)
	s.mu.Lock()
	if cur, ok := s.m[id]; ok && int(cur) == idx {
		delete(s.m, id)
	}
	s.mu.Unlock()
}

// count returns the number of pinned flows.
func (t *pinTable) count() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.m))
		s.mu.Unlock()
	}
	return n
}

// countByInstance accumulates per-instance pin counts into dst.
func (t *pinTable) countByInstance(dst []int64) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, idx := range s.m {
			if int(idx) < len(dst) {
				dst[idx]++
			}
		}
		s.mu.Unlock()
	}
}
