package gateway

import (
	"reflect"
	"testing"
	"unsafe"
)

const cacheLine = 64

// TestShardLayout holds the shard to exactly two cache lines, with the flow
// table's header on the line the mutex is on. A field added to shard without
// revisiting the layout fails here instead of silently making every shard
// straddle its neighbour's line (as `_ [48]byte` did once `expired` joined:
// 136 bytes).
func TestShardLayout(t *testing.T) {
	var s shard
	if size := unsafe.Sizeof(s); size != 2*cacheLine {
		t.Errorf("shard is %d bytes, not two %d-byte cache lines: neighbouring shards false-share, or a line is wasted", size, cacheLine)
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

// TestGatewayHotWordLayout keeps the active count — CAS'd by every
// admission and decremented by every departure, on every core — a cache
// line clear of every field an admission or a rate update reads, wherever
// the gateway is allocated. At offset 160 it shared a line with shards
// (128) and mask (152), which every operation reads to find its shard.
func TestGatewayHotWordLayout(t *testing.T) {
	typ := reflect.TypeOf(Gateway{})
	active, _ := typ.FieldByName("active")
	for _, name := range []string{"shards", "mask", "clock", "sampleMask", "bound", "ttl", "trackPeak", "vnow", "peakBits"} {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("Gateway has no field %s", name)
		}
		lo, hi := active, f
		if lo.Offset > hi.Offset {
			lo, hi = hi, lo
		}
		if hi.Offset < lo.Offset+lo.Type.Size()+cacheLine {
			t.Errorf("Gateway.active (offset %d) can share a cache line with %s (offset %d), which every admit or update reads", active.Offset, name, f.Offset)
		}
	}
}
