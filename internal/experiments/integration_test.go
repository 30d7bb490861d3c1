package experiments

import (
	"bytes"
	"testing"
	"testing/quick"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/mirror"
	"blobvfs/internal/pvfs"
	"blobvfs/internal/qcow2"
)

// TestMirrorAndQcow2AreContentEquivalent drives the paper's system and
// its baseline through identical random operation sequences over the
// same base image, with real bytes on the live fabric: whatever the
// hypervisor would observe must be byte-identical on both stacks —
// the two differ in cost and manageability, never in content.
func TestMirrorAndQcow2AreContentEquivalent(t *testing.T) {
	type op struct {
		Off, Len uint16
		Write    bool
		Seed     byte
	}
	const size, chunk = 64 << 10, 8 << 10
	f := func(ops []op) bool {
		fab := cluster.NewLive(4)
		nodes := []cluster.NodeID{0, 1, 2, 3}
		base := make([]byte, size)
		for i := range base {
			base[i] = byte(i*7 + 3)
		}
		ok := true
		fab.Run(func(ctx *cluster.Ctx) {
			// Paper's stack.
			sys := blob.NewSystem(nodes, 0, 1)
			bc := blob.NewClient(sys)
			id, err := bc.Create(ctx, size, chunk)
			if err != nil {
				ok = false
				return
			}
			v, err := bc.WriteAt(ctx, id, 0, base, 0)
			if err != nil {
				ok = false
				return
			}
			mod := mirror.NewModule(0, blob.NewClient(sys))
			mi, err := mod.Open(ctx, id, v, true)
			if err != nil {
				ok = false
				return
			}
			// Baseline stack.
			fs := pvfs.New(nodes, chunk)
			bf, err := fs.Create(ctx, "base", size, true)
			if err != nil {
				ok = false
				return
			}
			if err := bf.WriteAt(ctx, base, 0, size); err != nil {
				ok = false
				return
			}
			qi, err := qcow2.Create(0, pvfsBacking{bf}, 4096, true)
			if err != nil {
				ok = false
				return
			}

			for _, o := range ops {
				off := int64(o.Off) % size
				l := int64(o.Len)%9000 + 1
				if off+l > size {
					l = size - off
				}
				if o.Write {
					data := bytes.Repeat([]byte{o.Seed | 1}, int(l))
					if _, err := mi.WriteAt(ctx, data, off); err != nil {
						ok = false
						return
					}
					if err := qi.WriteAt(ctx, data, off, l); err != nil {
						ok = false
						return
					}
				} else {
					a := make([]byte, l)
					b := make([]byte, l)
					if _, err := mi.ReadAt(ctx, a, off); err != nil {
						ok = false
						return
					}
					if err := qi.ReadAt(ctx, b, off, l); err != nil {
						ok = false
						return
					}
					if !bytes.Equal(a, b) {
						ok = false
						return
					}
				}
			}
			// Full-image comparison at the end.
			a := make([]byte, size)
			b := make([]byte, size)
			if _, err := mi.ReadAt(ctx, a, 0); err != nil {
				ok = false
				return
			}
			if err := qi.ReadAt(ctx, b, 0, size); err != nil {
				ok = false
				return
			}
			if !bytes.Equal(a, b) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// pvfsBacking adapts a PVFS file to the qcow2 backing interface.
type pvfsBacking struct {
	f *pvfs.File
}

func (b pvfsBacking) ReadAt(ctx *cluster.Ctx, p []byte, off, n int64) error {
	return b.f.ReadAt(ctx, p, off, n)
}

func (b pvfsBacking) Size() int64 { return b.f.Size() }

// TestSuspendResumeCycleWithRealBytes runs the full §5.5 state machine
// with actual data: deploy, compute state, snapshot, resume the
// snapshot on a different node, and verify the state survived.
func TestSuspendResumeCycleWithRealBytes(t *testing.T) {
	fab := cluster.NewLive(4)
	nodes := []cluster.NodeID{0, 1, 2, 3}
	fab.Run(func(ctx *cluster.Ctx) {
		sys := blob.NewSystem(nodes, 0, 1)
		c := blob.NewClient(sys)
		id, _ := c.Create(ctx, 128<<10, 8<<10)
		base := bytes.Repeat([]byte{0xEE}, 128<<10)
		v, err := c.WriteAt(ctx, id, 0, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		mods := map[cluster.NodeID]*mirror.Module{}
		for _, n := range nodes {
			mods[n] = mirror.NewModule(n, blob.NewClient(sys))
		}
		// Phase 1 on node 1: compute and save intermediate state.
		var snapID blob.ID
		var snapV blob.Version
		t1 := ctx.Go("phase1", 1, func(cc *cluster.Ctx) {
			im, err := mods[1].Open(cc, id, v, true)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := im.WriteAt(cc, []byte("pi=3.14159 after 5e8 samples"), 64<<10); err != nil {
				t.Error(err)
				return
			}
			if err := im.Clone(cc); err != nil {
				t.Error(err)
				return
			}
			nv, err := im.Commit(cc)
			if err != nil {
				t.Error(err)
				return
			}
			snapID, snapV = im.BlobID(), nv
		})
		ctx.Wait(t1)
		// Phase 2 on node 3 (nothing local there): resume and verify.
		t2 := ctx.Go("phase2", 3, func(cc *cluster.Ctx) {
			im, err := mods[3].Open(cc, snapID, snapV, true)
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, 28)
			if _, err := im.ReadAt(cc, got, 64<<10); err != nil {
				t.Error(err)
				return
			}
			if string(got) != "pi=3.14159 after 5e8 samples" {
				t.Errorf("resumed state = %q", got)
			}
			// And untouched regions still carry the base image.
			rest := make([]byte, 100)
			if _, err := im.ReadAt(cc, rest, 0); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(rest, base[:100]) {
				t.Error("base content corrupted across suspend/resume")
			}
		})
		ctx.Wait(t2)
	})
}
