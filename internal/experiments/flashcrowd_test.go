package experiments

import "testing"

// TestFlashCrowdSharingKillsProviderHotSpot: with a provider pool much
// smaller than the crowd, enabling p2p sharing must strictly reduce
// both the total provider load and the hottest provider's load, with
// the difference served by cohort peers.
func TestFlashCrowdSharingKillsProviderHotSpot(t *testing.T) {
	p := Quick()
	fc := Crowd{Instances: 48, Providers: 4}
	off := RunFlashCrowd(p, fc)
	fc.Sharing = true
	on := RunFlashCrowd(p, fc)

	if off.PeerReads != 0 {
		t.Errorf("sharing off but %d peer reads", off.PeerReads)
	}
	if on.PeerReads == 0 {
		t.Error("sharing on but no chunk was served by a peer")
	}
	if on.ProviderReads >= off.ProviderReads {
		t.Errorf("provider reads did not drop: %d with sharing vs %d without",
			on.ProviderReads, off.ProviderReads)
	}
	if on.MaxProviderReads >= off.MaxProviderReads {
		t.Errorf("hottest provider did not cool down: %d with sharing vs %d without",
			on.MaxProviderReads, off.MaxProviderReads)
	}
	// Every demand fetch is served exactly once, by a provider or a peer.
	if got, want := on.ProviderReads+on.PeerReads, off.ProviderReads; got != want {
		t.Errorf("reads not conserved: %d provider + %d peer = %d, want %d",
			on.ProviderReads, on.PeerReads, got, want)
	}
	// Relieving the provider bottleneck must not slow the deployment.
	if on.Completion > off.Completion*1.05 {
		t.Errorf("sharing slowed completion: %.2fs vs %.2fs", on.Completion, off.Completion)
	}
}

// TestFlashCrowd256 runs the acceptance-scale point: 256 concurrent
// deployments against an 8-provider pool. Per-provider chunk traffic
// must be strictly lower with sharing enabled.
func TestFlashCrowd256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-instance flash crowd skipped in -short mode")
	}
	p := Quick()
	fc := Crowd{Instances: 256, Providers: 8}
	off := RunFlashCrowd(p, fc)
	fc.Sharing = true
	on := RunFlashCrowd(p, fc)

	if on.MaxProviderReads >= off.MaxProviderReads {
		t.Errorf("hottest provider at 256 instances: %d with sharing, %d without",
			on.MaxProviderReads, off.MaxProviderReads)
	}
	if on.ProviderReads >= off.ProviderReads {
		t.Errorf("provider reads at 256 instances: %d with sharing, %d without",
			on.ProviderReads, off.ProviderReads)
	}
	if on.Completion > off.Completion {
		t.Errorf("sharing slowed the 256-instance crowd: %.2fs vs %.2fs",
			on.Completion, off.Completion)
	}
}

// TestFlashCrowdMetadataBatching: the metadata read path must resolve
// trees in batched rounds, not one service operation per node — the
// "metadata must not become the bottleneck" property. With level-order
// descent and the open-time extent prefetch, the whole deployment's
// service-operation count stays a small multiple of the per-level
// provider fan-out instead of scaling with tree-node count.
func TestFlashCrowdMetadataBatching(t *testing.T) {
	p := Quick()
	pt := RunFlashCrowd(p, Crowd{Instances: 48, Providers: 4})
	if pt.MetaGets == 0 || pt.MetaNodes == 0 {
		t.Fatalf("no metadata traffic recorded: %+v", pt)
	}
	factor := float64(pt.MetaNodes) / float64(pt.MetaGets)
	if factor < 8 {
		t.Errorf("metadata batching factor = %.1f (%d nodes / %d ops), want >= 8",
			factor, pt.MetaNodes, pt.MetaGets)
	}
	// Roughly depth rounds per provider per instance: span 1024 is
	// depth 10, 4 providers → well under 64 service ops per instance.
	if perInst := pt.MetaGets / int64(pt.Instances); perInst > 64 {
		t.Errorf("metadata ops per instance = %d, want <= 64 (depth-bounded rounds)", perInst)
	}
}

// TestFlashCrowdDeterministic: the scenario is bit-for-bit repeatable,
// p2p layer included.
func TestFlashCrowdDeterministic(t *testing.T) {
	p := Quick()
	fc := Crowd{Instances: 16, Providers: 4, Sharing: true}
	a := RunFlashCrowd(p, fc)
	b := RunFlashCrowd(p, fc)
	if a != b {
		t.Errorf("flash crowd not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestFlashCrowdScalesFlat pins the flat scale curve: with pull-on-miss
// locations every member does its own O(chunks) control RPCs and nobody
// is told what the others did, so an 8× larger crowd costs 8× the
// simulator events and 8× the bytes. The cohort-wide digest flood this
// replaced grew both per instance (steps 2.1k → 5.7k between these two
// sizes).
func TestFlashCrowdScalesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-instance flash crowd skipped in -short mode")
	}
	p := Quick()
	perInstance := func(n int) (steps, trafficMB float64) {
		pt := RunFlashCrowd(p, Crowd{Instances: n, Providers: 8, Sharing: true})
		if pt.Booted != n {
			t.Fatalf("%d of %d instances booted", pt.Booted, n)
		}
		return float64(pt.Steps) / float64(n), pt.TrafficGB * 1e3 / float64(n)
	}
	steps128, mb128 := perInstance(128)
	steps1k, mb1k := perInstance(1024)
	if r := steps1k / steps128; r > 1.1 {
		t.Errorf("sim steps per instance grew %.2f× from 128 to 1024 instances (%.0f → %.0f), want <= 1.1×",
			r, steps128, steps1k)
	}
	if r := mb1k / mb128; r > 1.1 {
		t.Errorf("traffic per instance grew %.2f× from 128 to 1024 instances (%.1f → %.1f MB), want <= 1.1×",
			r, mb128, mb1k)
	}
}

// TestFlashCrowdCompletionGrowsWithLogOfCrowd pins what the per-chunk
// binary tree buys: a member passes a chunk on twice however large the
// crowd, so a 16× larger crowd costs four more hops per chunk and no more
// disk time per member, and the providers seed each chunk about once.
// Under the upload slots this replaced, the member that ran ahead served
// every chunk as often as slots came free and the crowd moved at its
// disk's pace (9.79 s at 1,024 against 5.29 s at 64, 2,441 provider
// reads).
func TestFlashCrowdCompletionGrowsWithLogOfCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-instance flash crowd skipped in -short mode")
	}
	p := Quick()
	run := func(n int) CrowdPoint {
		pt := RunFlashCrowd(p, Crowd{Instances: n, Providers: 8, Sharing: true})
		if pt.Booted != n {
			t.Fatalf("%d of %d instances booted", pt.Booted, n)
		}
		// Every demand fetch is served once, by a provider or a peer.
		bootChunks := (pt.ProviderReads + pt.PeerReads) / int64(n)
		if pt.ProviderReads > 2*bootChunks {
			t.Errorf("%d instances: %d provider reads for %d boot chunks, want at most two a chunk",
				n, pt.ProviderReads, bootChunks)
		}
		return pt
	}
	small, large := run(64), run(1024)
	if large.Completion > 1.25*small.Completion {
		t.Errorf("completion grew from %.2f s at 64 instances to %.2f s at 1024, want <= 1.25x",
			small.Completion, large.Completion)
	}
}
