package p2p

import (
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// BenchmarkCohortLanded measures what the tracker keeps for a crowd that
// fetches the same chunks: on the sim fabric, 1,024 members each put the
// same 64 chunks on record with Fetching and land them ok, one after the
// other. Every op starts from a freshly registered cohort, so B/op and
// allocs/op are the cost of the records 1,024 × 64 (member, chunk) pairs
// leave behind, plus the activities that make the calls.
func BenchmarkCohortLanded(b *testing.B) {
	const members, chunks = 1024, 64
	fab := cluster.NewSim(cluster.DefaultConfig(members + 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := NewRegistry(members, DefaultConfig())
		var co *Cohort
		fab.Run(func(ctx *cluster.Ctx) { co = reg.Register(ctx, 1, nodeRange(0, members)) })
		b.StartTimer()
		fab.Run(func(ctx *cluster.Ctx) {
			for m := 0; m < members; m++ {
				ctx.Go("member", cluster.NodeID(m), func(cc *cluster.Ctx) {
					for k := blob.ChunkKey(1); k <= chunks; k++ {
						co.Fetching(cc, k)
						co.Landed(cc, k, true)
					}
				})
			}
		})
		if st := co.Stats(); st.Announced != members*chunks {
			b.Fatalf("%d chunks published, want %d", st.Announced, members*chunks)
		}
	}
}
