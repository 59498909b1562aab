package gateway

import (
	"testing"
	"unsafe"
)

const cacheLine = 64

// TestShardLayout holds the shard to whole cache lines, with the flow
// table's header on the line the mutex is on. A field added to shard without
// revisiting the layout fails here instead of silently making every shard
// straddle its neighbour's line (as `_ [48]byte` did once `expired` joined:
// 136 bytes).
func TestShardLayout(t *testing.T) {
	var s shard
	if size := unsafe.Sizeof(s); size%cacheLine != 0 {
		t.Errorf("shard is %d bytes, not a multiple of the %d-byte cache line: neighbouring shards false-share", size, cacheLine)
	}
	if end := unsafe.Offsetof(s.flows) + unsafe.Sizeof(s.flows); end > cacheLine {
		t.Errorf("the flow table's header ends at offset %d, past the mutex's cache line", end)
	}
	// As allocated: the runtime places a shard slice on a line boundary or
	// one word past it, and either keeps mutex and header together.
	for _, shards := range []int{1, 4, 16, 64, 512} {
		g, _ := perfectGateway(t, 100, 1, 0.3, 1e-2, shards)
		for i := range g.shards {
			sh := &g.shards[i]
			first := uintptr(unsafe.Pointer(&sh.mu)) / cacheLine
			last := (uintptr(unsafe.Pointer(&sh.flows)) + unsafe.Sizeof(sh.flows) - 1) / cacheLine
			if first != last {
				t.Fatalf("%d shards: shard %d's mutex and table header are on different cache lines", shards, i)
			}
		}
	}
}
