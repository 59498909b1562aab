package cluster

import (
	"sync"

	"repro/internal/flowtab"
)

// pinTable maps flow ID → owning instance index, sharded by the same mix
// and the same shard count as every instance's flow table, and each pin
// shard's mutex is the lock of shard k on every instance too (New builds
// the instances with gateway.NewShared): one lock guards a flow's pin and
// the flow's entry wherever it lives. So a pin is read and written only in
// the critical section that changes the flow — admission (the instance's
// gateway.Owner hook), migration, departure, lease expiry (reported under
// that lock by the instance's tick) — and the table is exact under any
// interleaving. Each shard is the same flat table as a gateway shard's,
// embedded beside its mutex for the same reason (see flowtab).
type pinTable struct {
	// The shards are an allocation of their own, not an array inside
	// Cluster: there they would start at whatever offset the enclosing
	// struct gave them, and each shard would straddle two cache lines.
	shards []pinShard
	mask   uint64
}

// pinShard is one cache line exactly (TestPinShardLayout): mutex, table
// header, pad.
type pinShard struct {
	mu   sync.Mutex
	pins flowtab.Table[int32]
	_    [8]byte
}

// init allocates n shards (a power of two: gateway.ShardCount) and returns
// their locks, for the instances to share.
func (t *pinTable) init(n int) []*sync.Mutex {
	t.shards = make([]pinShard, n)
	t.mask = uint64(n - 1)
	locks := make([]*sync.Mutex, n)
	for k := range t.shards {
		locks[k] = &t.shards[k].mu
	}
	return locks
}

// shardFor returns id's shard — on every instance, the shard whose lock
// guards id.
func (t *pinTable) shardFor(id uint64) *pinShard {
	return &t.shards[flowtab.Mix(id)&t.mask]
}

// drop removes id's pin; the caller holds id's shard lock. It is the lease
// sweep's report (gateway.TickExpired), which runs under that lock.
func (t *pinTable) drop(id uint64) { t.shardFor(id).pins.Delete(id) }

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
