package gateway

import (
	"reflect"
	"testing"
	"unsafe"
)

const cacheLine = 64

// TestShardLayout holds the flow table's row shard to one cache line with
// its mutex and table header together, a row's table slot to 32 bytes (the
// owner rides in q's top bits, not in a field of its own), a gateway's
// accounting shard to one cache line that, as allocated, starts on a line,
// and the Fleet header to two lines of its own.
// A field added to either without revisiting the layout fails here instead
// of silently making every shard straddle its neighbour's line (as
// `_ [48]byte` did once `expired` joined: 136 bytes). The accounting shard
// holds no pointer: an object with pointers past 512 bytes starts one word
// into a line (the allocator's header), which the 16-, 64- and 512-shard
// gateways below would show.
func TestShardLayout(t *testing.T) {
	var r rowShard
	if size := unsafe.Sizeof(r); size != cacheLine {
		t.Errorf("rowShard is %d bytes, not one %d-byte cache line: neighbouring shards false-share, or a line is wasted", size, cacheLine)
	}
	if end := unsafe.Offsetof(r.rows) + unsafe.Sizeof(r.rows); end > cacheLine {
		t.Errorf("the flow table's header ends at offset %d, past the mutex's cache line", end)
	}
	slots, ok := reflect.TypeOf(r.rows).FieldByName("slots")
	if !ok {
		t.Fatal("flowtab.Table has no slots field")
	}
	if size := slots.Type.Elem().Size(); size != 32 {
		t.Errorf("a row's table slot is %d bytes, not 32", size)
	}
	if size := unsafe.Sizeof(shard{}); size != cacheLine {
		t.Errorf("shard is %d bytes, not one %d-byte cache line", size, cacheLine)
	}
	if size := unsafe.Sizeof(Fleet{}); size != 2*cacheLine {
		t.Errorf("Fleet is %d bytes, not two %d-byte cache lines: its neighbours on the heap can share its lines", size, cacheLine)
	}
	// As allocated: the runtime places a row shard slice on a line boundary
	// or one word past it, and either keeps mutex and header together.
	for _, shards := range []int{1, 4, 16, 64, 512} {
		g, _ := perfectGateway(t, 100, 1, 0.3, 1e-2, shards)
		for k := range g.fleet.rows {
			r := &g.fleet.rows[k]
			first := uintptr(unsafe.Pointer(&r.mu)) / cacheLine
			last := (uintptr(unsafe.Pointer(&r.rows)) + unsafe.Sizeof(r.rows) - 1) / cacheLine
			if first != last {
				t.Fatalf("%d shards: row shard %d's mutex and table header are on different cache lines", shards, k)
			}
		}
		if off := uintptr(unsafe.Pointer(&g.shards[0])) % cacheLine; off != 0 {
			t.Fatalf("%d shards: the accounting shards start %d bytes into a cache line", shards, off)
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
	for _, name := range []string{"fleet", "idx", "shards", "lat", "clock", "sampleMask", "bound", "ttl", "trackPeak", "vnow", "peakBits"} {
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
