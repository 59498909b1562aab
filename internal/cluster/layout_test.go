package cluster

import (
	"reflect"
	"testing"
)

const cacheLine = 64

// TestPinShardLayout holds the row shards a cluster's instances share — a
// flow's pin is its row — to one cache line each, mutex and table header
// together (the map-era pin shard was 56 bytes under a comment that said
// the pad kept shards on separate lines), at every shard count, as
// allocated: below 512 bytes on a line boundary, above it one word past
// one. The row shard is the gateway's, so it is reached by reflection.
func TestPinShardLayout(t *testing.T) {
	for _, shards := range []int{1, 4, 16, 64, 512} {
		cfg := Config{}
		for i := 0; i < 2; i++ {
			gc := testGatewayConfig(t, 100, 0)
			gc.Shards = shards
			cfg.Instances = append(cfg.Instances, gc)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := reflect.ValueOf(c.fleet).Elem().FieldByName("rows")
		typ := rows.Type().Elem()
		mu, _ := typ.FieldByName("mu")
		tab, _ := typ.FieldByName("rows")
		if size := typ.Size(); size%cacheLine != 0 {
			t.Fatalf("%s is %d bytes, not a multiple of the %d-byte cache line: neighbouring shards false-share", typ, size, cacheLine)
		}
		if rows.Len() != shards {
			t.Fatalf("%d shards configured, %d row shards shared", shards, rows.Len())
		}
		for k := 0; k < rows.Len(); k++ {
			base := rows.Index(k).UnsafeAddr()
			first := (base + mu.Offset) / cacheLine
			last := (base + tab.Offset + tab.Type.Size() - 1) / cacheLine
			if first != last {
				t.Fatalf("%d shards: row shard %d's mutex and table header are on different cache lines", shards, k)
			}
		}
	}
}

// apart reports whether fields a and b of one struct are at least a cache
// line apart, so they share no line wherever the struct is allocated.
func apart(a, b reflect.StructField) bool {
	if a.Offset > b.Offset {
		a, b = b, a
	}
	return b.Offset >= a.Offset+a.Type.Size()+cacheLine
}

func structFields(t *testing.T, typ reflect.Type, names ...string) []reflect.StructField {
	t.Helper()
	var fs []reflect.StructField
	for _, name := range names {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%s has no field %s", typ, name)
		}
		fs = append(fs, f)
	}
	return fs
}

// TestClusterHotWordLayout keeps the placement state, written by every
// placement, off the cache lines of the fields every routed op reads. At
// offsets 88–96 placeMu and preferred shared a line with instances (56) and
// the pin table (80), so each admission on one core invalidated the line
// every UpdateRate and Depart on the others read to find their pin.
func TestClusterHotWordLayout(t *testing.T) {
	typ := reflect.TypeOf(Cluster{})
	read := structFields(t, typ, "instances", "fleet")
	written := structFields(t, typ, "placeMu", "preferred", "rr", "credit", "poolBuf", "degBuf", "warmBuf")
	for _, w := range written {
		for _, r := range read {
			if !apart(w, r) {
				t.Errorf("Cluster.%s (offset %d, written by every placement) can share a cache line with %s (offset %d, read by every routed op)", w.Name, w.Offset, r.Name, r.Offset)
			}
		}
	}
}

// TestInstanceHotWordLayout keeps per-admission writes off the line that
// placement scores: placeLocked reads state, muBits and warm (and g,
// capacity) of every instance on every placement. The instance's other
// fields are written only by New and drains; any field outside both lists
// must sit a cache line away from the scoring fields. placements, bumped by
// every admission at offset 40 beside state, muBits and warm (16–32), was
// such a field; its count is now derived.
func TestInstanceHotWordLayout(t *testing.T) {
	typ := reflect.TypeOf(instance{})
	scoring := structFields(t, typ, "g", "capacity", "state", "muBits", "warm")
	listed := map[string]bool{"migratedIn": true, "migratedOut": true}
	for _, s := range scoring {
		listed[s.Name] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if listed[f.Name] {
			continue
		}
		for _, s := range scoring {
			if !apart(f, s) {
				t.Errorf("instance.%s (offset %d) is neither a scoring field nor written only by New and drains, and can share a cache line with %s (offset %d)", f.Name, f.Offset, s.Name, s.Offset)
			}
		}
	}
}
