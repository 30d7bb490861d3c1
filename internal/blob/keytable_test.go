package blob

import (
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"testing"

	"blobvfs/internal/cluster"
)

// FuzzKeyTable drives a keyTable through puts, deletes, gets, ordered
// listings, counts and sweeps over keys spread across four pages,
// against a map. Each op is three bytes: the op, then a little-endian
// key. Op 3 empties the key's page, which must then be dropped, and
// later puts refill it. Op 5 lists up to the key while its callee
// deletes each record whose value has the op's parity, the pattern of
// replicaSet.Sweep: every record up to the key must be handed over
// once, in key order. A zero value is a record like any other.
func FuzzKeyTable(f *testing.F) {
	op := func(code byte, key uint16) []byte { return []byte{code, byte(key), byte(key >> 8)} }
	var seed []byte
	for k := uint16(pageKeys - 2); k < 2*pageKeys+3; k += 7 {
		seed = append(seed, op(0, k)...)
	}
	for k := uint16(pageKeys + 1); k < 2*pageKeys; k += 9 {
		seed = append(seed, op(6, k)...) // value 1
	}
	seed = append(seed, op(4, pageKeys+9)...)
	seed = append(seed, op(3, pageKeys+5)...)
	seed = append(seed, op(0, pageKeys+5)...)
	seed = append(seed, op(1, 3*pageKeys)...)
	seed = append(seed, op(2, pageKeys+5)...)
	seed = append(seed, op(5, 2*pageKeys-1)...) // deletes the value-0 records below page 2
	seed = append(seed, op(3, 0)...)
	f.Add(seed)
	f.Add(append(op(0, 0), op(1, 0)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab keyTable[ChunkKey, uint8]
		ref := make(map[ChunkKey]uint8)
		list := func() {
			var keys []ChunkKey
			for k, v := range tab.all {
				if v != ref[k] {
					t.Fatalf("key %d listed with %d, want %d", k, v, ref[k])
				}
				keys = append(keys, k)
			}
			if want := slices.Sorted(maps.Keys(ref)); !slices.Equal(keys, want) {
				t.Fatalf("listing %v, want %v", keys, want)
			}
			if tab.n != len(ref) {
				t.Fatalf("count %d, want %d", tab.n, len(ref))
			}
			for pi, p := range tab.pages {
				if p != nil && p.present == [pageKeys / 64]uint64{} {
					t.Fatalf("page %d kept with no record", pi)
				}
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			k := ChunkKey(binary.LittleEndian.Uint16(ops[i+1:]) % (4 * pageKeys))
			v := ops[i] / 6
			switch ops[i] % 6 {
			case 0:
				tab.put(k, v)
				ref[k] = v
			case 1:
				got, ok := tab.del(k)
				want, had := ref[k]
				if ok != had || got != want {
					t.Fatalf("del(%d) = %d, %v; want %d, %v", k, got, ok, want, had)
				}
				delete(ref, k)
			case 2:
				got, ok := tab.get(k)
				if want, had := ref[k]; ok != had || got != want {
					t.Fatalf("get(%d) = %d, %v; want %d, %v", k, got, ok, want, had)
				}
			case 3:
				first := k / pageKeys * pageKeys
				for key := first; key < first+pageKeys; key++ {
					if _, ok := tab.del(key); ok {
						delete(ref, key)
					}
				}
				if int(k/pageKeys) < len(tab.pages) && tab.pages[k/pageKeys] != nil {
					t.Fatalf("page %d emptied but kept", k/pageKeys)
				}
			case 4:
				list()
			case 5:
				want := slices.Sorted(maps.Keys(ref))
				upTo, _ := slices.BinarySearch(want, k+1)
				want = want[:upTo]
				var handed []ChunkKey
				tab.all(func(key ChunkKey, val uint8) bool {
					if key > k {
						return false
					}
					handed = append(handed, key)
					if val%2 == v%2 {
						tab.del(key)
						delete(ref, key)
					}
					return true
				})
				if !slices.Equal(handed, want) {
					t.Fatalf("sweep to %d handed %v, want %v", k, handed, want)
				}
				list()
			}
		}
		list()
	})
}

// TestCheckCatchesEachBrokenInvariant corrupts one record of the
// replica-set core at a time, one per clause of replicaSet.check, on
// each tier, and expects that clause's error; the intact records pass.
// The records hold two pages of keys, an off-ring record for every key
// whose ring holds the node that was down at the put, and two writes in
// flight.
func TestCheckCatchesEachBrokenInvariant(t *testing.T) {
	nodes := []cluster.NodeID{1, 2, 3, 4}
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	lv := cluster.NewLiveness(5) // no listeners: no repair sweep runs
	ps := NewProviderSet(nodes, 2)
	ps.SetLiveness(lv)
	m := NewMetaService(nodes)
	m.SetReplication(2)
	m.SetLiveness(lv)
	const keys = pageKeys + 40
	fab.Run(func(ctx *cluster.Ctx) {
		ps.ClearPending(ps.AllocPending(keys))
		m.ClearPending(m.AllocPending(keys))
		lv.Kill(ctx, nodes[0])
		puts, news := make([]ChunkPut, keys), make([]NewNode, keys)
		for i := range puts {
			k := uint64(i + 1)
			puts[i] = ChunkPut{ChunkKey(k), SyntheticPayload(64, k)}
			news[i] = NewNode{NodeRef(k), TreeNode{Lo: int64(k), Hi: int64(k) + 1}}
		}
		if err := ps.PutBatch(ctx, puts); err != nil {
			t.Fatal(err)
		}
		m.PutBatch(ctx, news)
		for _, n := range []int{3, 5} {
			ps.AllocPending(n)
			m.AllocPending(n)
		}
	})
	t.Run("chunks", func(t *testing.T) { checkCatches(t, &ps.replicaSet) })
	t.Run("metadata", func(t *testing.T) { checkCatches(t, &m.replicaSet) })
}

func checkCatches[K ~uint64, V any](t *testing.T, rs *replicaSet[K, V]) {
	if err := rs.check(); err != nil {
		t.Fatalf("intact records: %v", err)
	}
	if len(rs.off) == 0 || len(rs.pending) != 2 || len(rs.recs.pages) != 2 {
		t.Fatalf("%d off-ring records, %d pending ranges, %d pages: want some, 2 and 2", len(rs.off), len(rs.pending), len(rs.recs.pages))
	}
	offKey := slices.Min(slices.Collect(maps.Keys(rs.off)))
	off, rings, pending, recs := maps.Clone(rs.off), slices.Clone(rs.rings), slices.Clone(rs.pending), rs.recs
	recs.pages = slices.Clone(recs.pages)
	p := func() []keyRange[K] { return rs.pending }
	for _, tc := range []struct {
		name, want string
		mutate     func()
	}{
		{"record of an unstored key", "not stored", func() { rs.off[K(rs.next+1)] = []cluster.NodeID{2, 3} }},
		{"record names a node twice", "twice or outside", func() { rs.off[offKey] = []cluster.NodeID{2, 2} }},
		{"record names a stranger", "twice or outside", func() { rs.off[offKey] = []cluster.NodeID{2, 9} }},
		{"ring names a node twice", "twice or outside", func() { rs.rings[0] = []cluster.NodeID{rs.rings[0][0], rs.rings[0][0]} }},
		{"empty pending range", "pending range", func() { p()[1].end = p()[1].first }},
		{"pending ranges out of order", "pending range", func() { p()[0], p()[1] = p()[1], p()[0] }},
		{"pending ranges overlap", "pending range", func() { p()[1].first-- }},
		{"pending past the watermark", "pending range", func() { p()[1].end += 2 }},
		{"count off by one", "table counts", func() { rs.recs.n++ }},
		{"empty page kept", "table counts", func() { rs.recs.pages = append(rs.recs.pages, new(keyPage[V])) }},
	} {
		rs.off, rs.rings, rs.pending, rs.recs = maps.Clone(off), slices.Clone(rings), slices.Clone(pending), recs
		rs.recs.pages = slices.Clone(recs.pages)
		tc.mutate()
		if err := rs.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
	rs.off, rs.rings, rs.pending, rs.recs = off, rings, pending, recs
}
