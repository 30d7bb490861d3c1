# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml): its gofmt, vet, build, repeat, bench
# harness, line-budget and fuzz-smoke steps are `make fmt`, `make vet`,
# `make build`, `make repeat`, `make bench-check`, `make loc-budget`
# and `make fuzz`, so each check is defined here once. A green
# `make check` locally means a green pipeline — except the staticcheck
# job, which needs the tool installed (see the staticcheck target
# below), and CI's coverage gate and fuzz smoke (`make fuzz`).

.PHONY: build test race repeat check fmt vet bench bench-check crowd10k rebaseline fuzz examples staticcheck loc loc-budget

build:
	go build ./...

test:
	go test ./...

# internal/experiments alone takes about 213 s under -race on 2 CPUs,
# close enough to go test's 10-minute default to have hit it once.
race:
	go test -race -timeout 20m ./...

# repeat runs the simulator core's tests, flownet's included, forty
# times in one process: a test whose outcome drifts from one iteration
# to the next (the worker-pool tests sample goroutines) fails here (a
# few seconds). It also runs the p2p tracker's tests ten times under
# -race: their live-fabric runs interleave real goroutines on the
# cohort's lock, a different schedule each time (about 10 s).
repeat:
	go test -count=40 ./internal/sim/...
	go test -race -count=10 ./internal/p2p

# fmt fails on any file gofmt would change (CI's gofmt step).
fmt:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; }

vet:
	go vet ./...

# race already executes the examples once via the root package's
# TestExamplesBuildAndRun smoke, so check does not repeat them.
# bench-check is CI's "bench harness" step: the frozen bench/ module
# calls into internals, and only compiling it proves they are still
# there. A simplification must keep every one of them:
#   - blob: NewClient, and Client.PrefetchExtents, FetchChunks and
#     WriteChunks; the counters it reads on blob.System (Repo.System):
#     Meta.{Gets,NodesServed,Puts,Failovers,Rereplicated,FailedGets},
#     Providers.{Reads,Writes,PutRPCs,MaxNodeReads,Failovers,
#     Rereplicated,FailedReads} and VM.Failovers;
#   - p2p: NewRegistry (which returns the *Cohort), DefaultConfig,
#     Cohort.Register, Cohort.Announce and Cohort.Locate;
#   - sim: NewPSPool with PSPool.Use; flownet: Net.Start, Transfer and
#     NewLink;
#   - vmmodel: GenBootTrace and WithThinkJitter;
#   - middleware: NewMirrorBackend and Orchestrator;
#   - experiments: Default; NewEnv with Env.Run, Env.Orch and Env.Fab;
#     RunFig5(...).Series[OurApproach][i].Completion and .AvgTime, so
#     Fig5Result keeps its Series; and OurApproach;
#   - the façade: Repo.ArmFaultsRebased, P2PStats.DigestHits and
#     DigestPushes, and ImportStats.DedupedChunks.
check: fmt vet build race repeat bench-check loc-budget

# examples builds and runs every examples/* program — executable
# documentation of the public blobvfs API. Each must exit cleanly.
examples:
	go build ./examples/...
	go run ./examples/quickstart
	go run ./examples/debugclone
	go run ./examples/webfarm -servers 4 -requests 50
	go run ./examples/multideploy -n 8

# staticcheck keeps the public façade lint-clean. The tool is not
# vendored; install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

# bench records the perf trajectory in bench.txt; compare two runs with
# `benchstat old.txt new.txt`. The simulated benchmarks (paper-scale
# figures, flash crowds up to 10k instances, multisnapshot, churn,
# export), the p2p tracker's CohortLanded and the real-byte layer
# benchmarks of internal/sync and internal/mirror run at -cpu 1: the
# simulation is single-threaded and deterministic and the layer
# benchmarks are single-threaded copies, so a -cpu 8 row would only
# repeat the -cpu 1 row. The two metadata
# microbenchmarks run on the live fabric (but MetadataColdDescent's
# wave-110 row), where activities are goroutines, so they run at
# -cpu 1,8 and lock contention shows up.
# bench fails when a benchmark fails or prints no result row; bench_re
# turns a list of names into one anchored -bench regex.
BENCH_CPU1 := Fig4PaperScale FlashCrowd256 FlashCrowdDegraded FlashCrowdCrossZone \
	FlashCrowdMetaOutage FlashCrowdScale FlashCrowd10k Multisnapshot1024 Churn \
	ExportImport ArchiveEncode ArchiveDecode MirrorColdRead MirrorSparseOpen \
	CohortLanded
BENCH_LIVE := CommitDataStructures MetadataColdDescent
empty :=
bench_re = ^Benchmark($(subst $(empty) $(empty),|,$(strip $(1))))$$

bench: SHELL := bash
bench: .SHELLFLAGS := -o pipefail -ec
bench:
	go test -run '^$$' -bench '$(call bench_re,$(BENCH_CPU1))' -benchmem -count=1 -cpu 1 \
		-timeout 30m . ./internal/sync ./internal/mirror ./internal/p2p | tee bench.txt
	go test -run '^$$' -bench '$(call bench_re,$(BENCH_LIVE))' -benchmem -count=1 -cpu 1,8 \
		-timeout 10m . | tee -a bench.txt
	@missing=0; for b in $(BENCH_CPU1) $(BENCH_LIVE); do \
		grep -Eq "^Benchmark$$b([/-][^[:space:]]*)?[[:space:]]+[0-9]+[[:space:]]" bench.txt || \
			{ echo "bench: Benchmark$$b printed no result row" >&2; missing=1; }; \
	done; exit $$missing

# crowd10k runs the 10k flash crowd alone, once, in a process of its
# own, so its peak-rss-MB row is its own peak (ROADMAP item 16's
# memory gate; about a minute). CI does not run it.
crowd10k:
	go test -run '^$$' -bench '^BenchmarkFlashCrowd10k$$' -benchmem -count=1 -cpu 1 -benchtime 1x -timeout 30m .

# bench-check vets and tests the benchmark harness. bench/ is a module
# of its own (blobvfs/bench), so the root's `go vet ./...` and
# `go test ./...` never compile it.
bench-check:
	cd bench && go vet ./... && go test ./...

# rebaseline rewrites the versioned goldens of the -quick scenario
# tables (internal/experiments/testdata/golden). Run it when a change
# moves a pinned number on purpose, and put the before/after with its
# reason in CHANGES.md.
rebaseline:
	go test ./internal/experiments -run TestGoldenTables -update

# loc prints the size every CHANGES.md entry quotes: non-test Go
# outside bench/. CI fails when it exceeds .github/loc-budget.txt
# (ROADMAP item 9's line gate); a PR that shrinks the tree lowers the
# budget to its own count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | tail -1 | awk '{print $$1}'

# loc-budget is CI's line budget step: it fails when loc exceeds the
# budget.
loc-budget:
	@loc=$$($(MAKE) -s loc); budget=$$(cat .github/loc-budget.txt); \
	echo "non-test Go outside bench/: $$loc lines (budget $$budget)"; [ "$$loc" -le "$$budget" ]

# fuzz is CI's fuzz smoke: 20 s of each fuzz target. In internal/blob:
# the version build and the leaf walk against their references, chunk
# placement, and the record table both storage tiers keep (against a
# map); the archive decoder at the root and its round trip in
# internal/sync.
fuzz:
	go test -run '^$$' -fuzz FuzzBuildVersion -fuzztime 20s ./internal/blob
	go test -run '^$$' -fuzz FuzzCollectLeaves -fuzztime 20s ./internal/blob
	go test -run '^$$' -fuzz FuzzPlacement -fuzztime 20s ./internal/blob
	go test -run '^$$' -fuzz FuzzKeyTable -fuzztime 20s ./internal/blob
	go test -run '^$$' -fuzz FuzzImportArchive -fuzztime 20s .
	go test -run '^$$' -fuzz FuzzArchiveRoundTrip -fuzztime 20s ./internal/sync
