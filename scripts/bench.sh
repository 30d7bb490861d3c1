#!/usr/bin/env sh
# bench.sh runs the repository's key benchmarks — the paper-scale
# figure regenerations plus the metadata hot-path microbenchmarks —
# with allocation reporting, and writes the raw output to bench.txt
# (the artifact CI uploads, and the input `benchstat old.txt new.txt`
# compares across commits). It then distills the families via
# cmd/benchjson for dashboards that don't want to parse Go benchmark
# output: the flash-crowd family (flash, degraded, crosszone) into
# BENCH_flashcrowd.json — provider reads, cross-zone bytes (flat vs
# topology-aware, with the reduction factor) and ns/op — and the
# multisnapshot write path into BENCH_multisnapshot.json — provider
# write RPCs per commit round and ns/op — and the metadata-outage family
# into BENCH_metaoutage.json — flash-crowd completion healthy vs with half
# the metadata providers and a compute rack down, with the failover,
# re-replication and failed-descent counts — and the differential-sync
# family into BENCH_export.json — average delta vs full-image bytes
# shipped per sync round, with the reduction factor (gated at 5x) and
# the shipped/deduplicated chunk counts — and the scale sweep into
# BENCH_scale.json — instances vs ns/op and allocs/op across
# 256/1k/10k, the curve that shows the simulator itself scales.
#
# Usage: scripts/bench.sh [output-file] [json-file] [multisnap-json-file] [metaoutage-json-file] [export-json-file] [scale-json-file]
set -eu

out="${1:-bench.txt}"
json="${2:-BENCH_flashcrowd.json}"
msjson="${3:-BENCH_multisnapshot.json}"
mojson="${4:-BENCH_metaoutage.json}"
exjson="${5:-BENCH_export.json}"
scjson="${6:-BENCH_scale.json}"

go test -run '^$' \
  -bench 'BenchmarkFig4PaperScale|BenchmarkFlashCrowd256|BenchmarkFlashCrowdDegraded|BenchmarkFlashCrowdCrossZone|BenchmarkFlashCrowdMetaOutage|BenchmarkFlashCrowdScale|BenchmarkMultisnapshot1024|BenchmarkChurn|BenchmarkExportImport|BenchmarkCommitDataStructures|BenchmarkMetadataHotPath|BenchmarkMetadataColdDescent' \
  -benchmem -count=1 -cpu 1,8 -timeout 30m . | tee "$out"

# The 10k point runs in its own invocation, once and at -cpu 1: the
# simulation is deterministic, so the -cpu 8 rerun of the main sweep
# would only repeat a two-minute benchmark. The layer microbenchmarks
# of the real-byte path ride along (MB/s of the sync codec over a
# 64 MiB archive and of a cold read through the mirror): they are
# single-threaded copies and checksums.
go test -run '^$' \
  -bench 'BenchmarkFlashCrowd10k|BenchmarkArchiveEncode|BenchmarkArchiveDecode|BenchmarkMirrorColdRead' \
  -benchmem -count=1 -cpu 1 -timeout 15m . ./internal/sync ./internal/mirror | tee -a "$out"

go run ./cmd/benchjson -in "$out" -family flashcrowd -out "$json"
go run ./cmd/benchjson -in "$out" -family multisnapshot -out "$msjson"
go run ./cmd/benchjson -in "$out" -family metaoutage -out "$mojson"
go run ./cmd/benchjson -in "$out" -family export -out "$exjson"
go run ./cmd/benchjson -in "$out" -family scale -out "$scjson"
