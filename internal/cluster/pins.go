package cluster

import (
	"sync"

	"repro/internal/flowtab"
)

// pinTable maps flow ID → owning instance index, sharded by the same mix
// the gateway uses for its flow table so adjacent IDs spread across lock
// domains; each shard is the same flat table as a gateway shard's, embedded
// beside its mutex for the same reason (see flowtab). A pin is written
// where the flow is placed (putIfAbsent), rewritten by migration (set), and
// removed in one way (delIf) wherever the flow ends. No pin-shard lock is
// ever held across a call into a gateway; the expiry report runs the other
// way, gateway shard lock first, pin shard lock inside it.
type pinTable struct {
	// The shards are an allocation of their own, not an array inside
	// Cluster: there they would start at whatever offset the enclosing
	// struct gave them, and each shard would straddle two cache lines.
	shards *[pinShards]pinShard
}

// pinShards is the number of lock shards (a power of two).
const pinShards = 64

// pinShard is one cache line exactly (TestPinShardLayout): mutex, table
// header, pad.
type pinShard struct {
	mu   sync.Mutex
	pins flowtab.Table[int32]
	_    [8]byte
}

func (t *pinTable) init() { t.shards = new([pinShards]pinShard) }

func (t *pinTable) shardFor(id uint64) *pinShard {
	return &t.shards[flowtab.Mix(id)%pinShards]
}

// get returns the pinned instance for id.
func (t *pinTable) get(id uint64) (int, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pins.Get(id); p != nil {
		return int(*p), true
	}
	return 0, false
}

// putIfAbsent pins id to idx unless a pin already exists, returning the
// winning instance and whether this call inserted it — racing placements
// of the same flow agree on one owner, and only the inserting caller may
// roll its tentative pin back.
func (t *pinTable) putIfAbsent(id uint64, idx int) (int, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	p, inserted := s.pins.Put(id)
	if inserted {
		*p = int32(idx)
	}
	return int(*p), inserted
}

// set pins id to idx unconditionally (the migration repin).
func (t *pinTable) set(id uint64, idx int) {
	s := t.shardFor(id)
	s.mu.Lock()
	p, _ := s.pins.Put(id)
	*p = int32(idx)
	s.mu.Unlock()
}

// delIf removes id's pin only while it still points at idx, so a stale
// unpin never clobbers a concurrent re-placement.
func (t *pinTable) delIf(id uint64, idx int) {
	s := t.shardFor(id)
	s.mu.Lock()
	if p := s.pins.Get(id); p != nil && int(*p) == idx {
		s.pins.Delete(id)
	}
	s.mu.Unlock()
}

// count returns the number of pinned flows.
func (t *pinTable) count() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(s.pins.Len())
		s.mu.Unlock()
	}
	return n
}

// countByInstance accumulates per-instance pin counts into dst.
func (t *pinTable) countByInstance(dst []int64) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.pins.Range(func(_ uint64, idx *int32) {
			if int(*idx) < len(dst) {
				dst[*idx]++
			}
		})
		s.mu.Unlock()
	}
}
