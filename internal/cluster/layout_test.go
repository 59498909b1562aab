package cluster

import (
	"testing"
	"unsafe"
)

const cacheLine = 64

// TestPinShardLayout holds a pin shard to one cache line, mutex and table
// header together (the map-era shard was 56 bytes under a comment that said
// the pad kept shards on separate lines).
func TestPinShardLayout(t *testing.T) {
	var s pinShard
	if size := unsafe.Sizeof(s); size%cacheLine != 0 {
		t.Errorf("pinShard is %d bytes, not a multiple of the %d-byte cache line: neighbouring shards false-share", size, cacheLine)
	}
	if end := unsafe.Offsetof(s.pins) + unsafe.Sizeof(s.pins); end > cacheLine {
		t.Errorf("the pin table's header ends at offset %d, past the mutex's cache line", end)
	}
	c := newTestCluster(t, 2, 100, Config{})
	for i := range c.pins.shards {
		sh := &c.pins.shards[i]
		first := uintptr(unsafe.Pointer(&sh.mu)) / cacheLine
		last := (uintptr(unsafe.Pointer(&sh.pins)) + unsafe.Sizeof(sh.pins) - 1) / cacheLine
		if first != last {
			t.Fatalf("pin shard %d's mutex and table header are on different cache lines", i)
		}
	}
}
