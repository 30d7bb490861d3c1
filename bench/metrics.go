package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; bench_test.go holds the
// two together.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline by which an end-to-end metric
	// may worsen before a change counts as a regression. Per-layer
	// metrics are reported, not gated, and leave it 0.
	bound float64
	// exact: read from the virtual clock or a byte counter, so two runs
	// of one commit with one seed agree to the last digit (-selfcheck
	// holds them to that).
	exact bool
}

// endToEnd is what a user of the system sees. "sim_s" is modelled
// seconds, read from the sim fabric's clock on every workload (live-io
// reads them off one rep on the sim fabric, see liveRep); "s" is host
// seconds.
//
// A metric has one bound for all five workloads, so each bound is set by
// the workload that scatters most over ten runs on ten seeds (the README
// has the spreads). For the modelled seconds that is crowd-faults, whose
// deployments are chaotic in the launch jitter: the median over its ten
// deployments still moves by 6-19% from one seed to the next, against at
// most 2% on paper-deploy and snapshot-herd. For host time it is the
// 2-core VM.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "completion_s", unit: "sim_s", better: "lower", bound: 0.25, exact: true},
	{name: "op_p50_s", unit: "sim_s", better: "lower", bound: 0.25, exact: true},
	{name: "op_p90_s", unit: "sim_s", better: "lower", bound: 0.25, exact: true},
	{name: "traffic_mb", unit: "MB", better: "lower", bound: 0.05, exact: true},
	{name: "stored_ratio", unit: "ratio", better: "lower", bound: 0.06, exact: true},
	{name: "host_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_allocs", unit: "count", better: "lower", bound: 0.02},
	{name: "host_alloc_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "host_peak_mb", unit: "MB", better: "lower", bound: 0.15},
}

func layer(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unit, better: better}
	}
	return out
}

// layerCounts lists the per-layer metrics a workload's own reps give:
// counts read from the stack's public counters around the measured
// phase, and the trace.* figures derived from the spans of a traced rep.
// trace.* and live.* seconds are on the clock of the fabric the rep ran
// on: modelled on the sim workloads, the host's on live-io.
var layerCounts = concat(
	layer("count", "lower", "sim.steps", "sim.steps_per_instance"),
	layer("1/s", "higher", "sim.events_per_host_s"),
	layer("MB", "lower", "fabric.tier_rack_mb", "fabric.tier_zone_mb", "fabric.tier_remote_mb"),
	layer("count", "lower", "blob.meta.gets", "blob.meta.nodes_served", "blob.meta.puts"),
	layer("ratio", "higher", "blob.meta.batch_factor"),
	layer("count", "lower", "blob.provider.put_rpcs", "blob.provider.writes", "blob.provider.reads"),
	layer("ratio", "lower", "blob.provider.hot_share"),
	layer("count", "lower", "blob.meta.failovers", "blob.meta.rereplicated", "blob.meta.failed_gets",
		"blob.provider.failovers", "blob.provider.rereplicated", "blob.provider.failed_reads", "blob.vm.failovers"),
	layer("sim_s", "lower", "blob.gc.cycle_s"),
	layer("s", "lower", "blob.gc.host_s"),
	layer("count", "higher", "blob.gc.freed_chunks"),
	layer("count", "lower", "blob.gc.marked_nodes"),
	layer("count", "lower", "mirror.remote_chunk_fetches", "mirror.duplicate_fetches", "mirror.fetch_retries",
		"mirror.gap_fills", "mirror.committed_chunks"),
	layer("ratio", "higher", "mirror.local_hit_rate"),
	layer("count", "higher", "p2p.peer_hits", "p2p.digest_hits"),
	layer("ratio", "higher", "p2p.hit_rate", "p2p.tier_rack_share"),
	layer("count", "lower", "p2p.digest_pushes", "p2p.digest_rpcs_est", "p2p.announced", "p2p.duplicates",
		"p2p.saturated", "p2p.dead_dropped"),
	layer("sim_s", "lower", "orch.prepare_s", "orch.provision_p50_s", "orch.boot_p50_s", "orch.snapshot_p50_s"),
	layer("s", "lower", "live.completion_s", "live.snapshot_p50_s"),
	layer("MB/s", "higher", "live.read_mb_s", "live.write_mb_s"),
	layer("MB/s", "higher", "sync.export_mb_s", "sync.import_mb_s"),
	layer("ratio", "lower", "sync.delta_ratio"),
	layer("count", "higher", "sync.deduped_chunks"),
	layer("MB/s", "higher", "facade.create_mb_s", "facade.download_mb_s"),
	layer("s", "lower", "trace.open_disk_p50_s", "trace.read_wait_p50_s", "trace.snapshot_p50_s"),
	layer("ratio", "lower", "trace.read_wait_share", "trace.think_share", "trace.overhead_frac"),
)

// layerProbes lists the probe timings of probes.go. They do not depend
// on the workload.
var layerProbes = concat(
	layer("ns", "lower", "sim.event_ns", "sim.proc_switch_ns", "sim.pspool_use_ns"),
	layer("ns", "lower", "flownet.flow_ns_10", "flownet.flow_ns_1k", "flownet.flow_ns_10k", "flownet.flow_ns_shared_1k"),
	layer("ns", "lower", "fabric.rpc_ns", "fabric.disk_write_ns"),
	layer("sim_s", "lower", "fabric.rpc_model_s"),
	layer("ns", "lower", "blob.descent_cold_ns", "blob.descent_warm_ns", "blob.write_chunks_ns", "blob.gc_mark_ns"),
	layer("count", "lower", "blob.descent_cold_gets"),
	layer("ns", "lower", "mirror.read_hit_ns", "mirror.read_miss_ns", "mirror.write_ns", "mirror.commit_ns_per_chunk"),
	layer("ns", "lower", "p2p.announce_ns_256", "p2p.announce_ns_4k", "p2p.locate_ns_256", "p2p.locate_ns_4k"),
)

// perLayer is every per-layer metric, as BENCHMARK.json lists them.
var perLayer = concat(layerCounts, layerProbes)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
