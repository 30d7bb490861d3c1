package mirror

import (
	"slices"
	"strings"
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// TestCheckCatchesEachBrokenInvariant corrupts one record of an image
// at a time, one per invariant Image.check states, and expects that
// invariant's error; the intact record passes.
func TestCheckCatchesEachBrokenInvariant(t *testing.T) {
	const cs = 4 << 10
	rig := newRig(t, 2, 8*cs, cs)
	rig.run(t, func(ctx *cluster.Ctx) {
		im := rig.open(t, ctx, 0)
		write := func(off, n int64) {
			if _, err := im.WriteAt(ctx, make([]byte, n), off); err != nil {
				t.Fatal(err)
			}
		}
		// Chunks 2 and 5 committed; then chunk 1 whole and clean, chunk
		// 0 whole and dirty, chunk 3 partly mirrored and dirty.
		write(2*cs+10, 100)
		write(5*cs, 50)
		if _, err := im.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := im.ReadAt(ctx, make([]byte, cs+1), 0); err != nil {
			t.Fatal(err)
		}
		write(10, 100)
		write(3*cs+10, 100)
		if err := im.check(); err != nil {
			t.Fatalf("intact record: %v", err)
		}
		full, parts, committed := slices.Clone(im.chunks.full), slices.Clone(im.chunks.parts), slices.Clone(im.committed)
		if got := []int64{parts[0].Index, parts[1].Index}; len(parts) != 2 || got[0] != 0 || got[1] != 3 || len(committed) != 2 {
			t.Fatalf("parts %v, committed %v: want entries for chunks 0 and 3, two committed keys", parts, committed)
		}
		p := func() []chunkState { return im.chunks.parts }
		for _, tc := range []struct {
			name, want string
			mutate     func()
		}{
			{"dirty outside mirrored", "not inside mirrored", func() { p()[1].Dirty = span{0, cs} }},
			{"mirrored outside chunk", "not inside mirrored", func() { p()[1].Mir.Hi = cs + 1 }},
			{"bit cleared on a whole chunk", "full bit", func() { im.chunks.full[0] &^= 1 << 0 }},
			{"bit set on a partial chunk", "full bit", func() { im.chunks.full[0] |= 1 << 3 }},
			{"bit past the last chunk", "past the last chunk", func() { im.chunks.full[0] |= 1 << 9 }},
			{"parts out of order", "not sorted and unique", func() { p()[0], p()[1] = p()[1], p()[0] }},
			{"parts duplicated", "not sorted and unique", func() { p()[1] = p()[0] }},
			{"entry for an untouched chunk", "untouched or whole and clean", func() {
				im.chunks.parts = append(im.chunks.parts, chunkState{Index: 7})
			}},
			{"entry for a whole, clean chunk", "untouched or whole and clean", func() {
				im.chunks.parts = slices.Insert(im.chunks.parts, 1, chunkState{Index: 1, Mir: span{0, cs}})
			}},
			{"window left open", "publish window open", func() { p()[0].Window = true }},
			{"window's hull left behind", "publish window open", func() { p()[0].During = span{10, 20} }},
			{"committed out of order", "committed keys not sorted", func() {
				im.committed[0], im.committed[1] = im.committed[1], im.committed[0]
			}},
			{"committed duplicated", "committed keys not sorted", func() {
				im.committed = append(im.committed, blob.LeafEntry{Index: committed[1].Index})
			}},
		} {
			im.chunks.full, im.chunks.parts, im.committed = slices.Clone(full), slices.Clone(parts), slices.Clone(committed)
			tc.mutate()
			if err := im.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: check = %v, want an error saying %q", tc.name, err, tc.want)
			}
		}
	})
}
