// Command benchjson distills `go test -bench` output into a small
// machine-readable artifact. scripts/bench.sh pipes the benchmark run
// into bench.txt and then invokes this command once per family:
//
//   - family flashcrowd → BENCH_flashcrowd.json: every
//     flash-crowd-family benchmark line (flash, degraded, crosszone)
//     with its ns/op and custom metrics, plus a cross_zone summary
//     with the flat and aware interconnect byte counts and the
//     reduction factor topology awareness achieved.
//   - family multisnapshot → BENCH_multisnapshot.json: the
//     multisnapshot write-path benchmark lines (write RPCs per commit
//     round, ns/op).
//   - family metaoutage → BENCH_metaoutage.json: the metadata-outage
//     benchmark lines, plus a meta_outage summary with both arms'
//     completion times, the outage delta, and the metadata failover,
//     re-replication and failed-descent counts.
//   - family export → BENCH_export.json: the differential-sync
//     benchmark line, plus an export summary with the average delta
//     and full-image byte counts, the reduction factor, and the
//     shipped chunk count.
//   - family scale → BENCH_scale.json: the flash-crowd scale sweep
//     (BenchmarkFlashCrowdScale plus BenchmarkFlashCrowd10k), with a
//     scale summary charting instances vs wall-clock ns/op and
//     allocs/op — the trajectory that shows whether the simulator
//     itself keeps up with paper-scale ×100 crowds.
//
// Usage: benchjson [-in bench.txt] [-out BENCH_<family>.json] [-family flashcrowd|multisnapshot|metaoutage|export|scale]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// benchLine is one parsed benchmark result: the iteration count and
// every "value unit" pair, ns/op and custom metrics alike, keyed by
// unit.
type benchLine struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// crossZone is the headline summary the topology work is judged by:
// bytes that crossed a zone interconnect, flat policy vs aware, and
// the reduction factor (cpu=1 rows; the simulation is deterministic,
// so the cpu=8 rows carry identical values).
type crossZone struct {
	FlatBytes      float64 `json:"flat_bytes"`
	AwareBytes     float64 `json:"aware_bytes"`
	ReductionX     float64 `json:"reduction_x"`
	FlatProvReads  float64 `json:"flat_provider_reads"`
	AwareProvReads float64 `json:"aware_provider_reads"`
}

// exportSummary is the headline summary of the differential-sync
// subsystem: bytes an average delta round ships vs re-shipping the
// full image, the reduction factor (gated at 5x by the benchmark
// itself), and how many chunks the deltas shipped.
type exportSummary struct {
	DeltaBytes    float64 `json:"delta_bytes"`
	FullBytes     float64 `json:"full_bytes"`
	ReductionX    float64 `json:"reduction_x"`
	ShippedChunks float64 `json:"shipped_chunks"`
}

// scalePoint is one instance-count point of the flash-crowd scale
// sweep; scaleSummary orders them by crowd size so the trajectory is
// directly plottable.
type scalePoint struct {
	Instances   float64 `json:"instances"`
	Booted      float64 `json:"booted"`
	NsOp        float64 `json:"ns_op"`
	AllocsOp    float64 `json:"allocs_op"`
	BytesOp     float64 `json:"bytes_op"`
	SimSteps    float64 `json:"sim_steps"`
	CompletionS float64 `json:"completion_s"`
}

type scaleSummary struct {
	Points []scalePoint `json:"points"`
}

// metaOutage is the headline summary of control-plane resilience:
// flash-crowd completion with a healthy control plane vs one that lost
// half its metadata providers plus a compute rack mid-run, the descents
// the outage forced down the replica ring, the tree nodes the repair
// sweep restored, and the failed descents (must be zero — the outage
// costs time, never a lookup).
type metaOutage struct {
	HealthyCompletionS float64 `json:"healthy_completion_s"`
	OutageCompletionS  float64 `json:"outage_completion_s"`
	CompletionDeltaS   float64 `json:"completion_delta_s"`
	MetaFailovers      float64 `json:"meta_failovers"`
	MetaRereplicated   float64 `json:"meta_rereplicated"`
	FailedDescents     float64 `json:"failed_descents"`
}

func main() {
	in := flag.String("in", "bench.txt", "benchmark output to parse")
	family := flag.String("family", "flashcrowd", "benchmark family to distill: flashcrowd or multisnapshot")
	out := flag.String("out", "", "artifact to write (default BENCH_<family>.json)")
	flag.Parse()
	var prefixes, excludes []string
	switch *family {
	case "flashcrowd":
		prefixes = []string{"BenchmarkFlashCrowd"}
		// The outage and scale sweeps are their own families.
		excludes = []string{"BenchmarkFlashCrowdMetaOutage", "BenchmarkFlashCrowdScale", "BenchmarkFlashCrowd10k"}
	case "multisnapshot":
		prefixes = []string{"BenchmarkMultisnapshot"}
	case "metaoutage":
		prefixes = []string{"BenchmarkFlashCrowdMetaOutage"}
	case "export":
		prefixes = []string{"BenchmarkExportImport"}
	case "scale":
		prefixes = []string{"BenchmarkFlashCrowdScale", "BenchmarkFlashCrowd10k"}
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown family %q\n", *family)
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *family + ".json"
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	benches := map[string]benchLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, bl, ok := parseLine(sc.Text())
		if !ok || !matches(name, prefixes, excludes) {
			continue
		}
		benches[name] = bl
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no %s benchmark lines in %s\n", *family, *in)
		os.Exit(1)
	}

	doc := struct {
		Benchmarks map[string]benchLine `json:"benchmarks"`
		CrossZone  *crossZone           `json:"cross_zone,omitempty"`
		MetaOutage *metaOutage          `json:"meta_outage,omitempty"`
		Export     *exportSummary       `json:"export,omitempty"`
		Scale      *scaleSummary        `json:"scale,omitempty"`
	}{Benchmarks: benches}

	// Summary benchmark names are unsuffixed on the cpu=1 run (go test
	// only appends -N for GOMAXPROCS > 1).
	flat, okF := benches["BenchmarkFlashCrowdCrossZone/flat"]
	aware, okA := benches["BenchmarkFlashCrowdCrossZone/aware"]
	if okF && okA {
		cz := &crossZone{
			FlatBytes:      flat.Metrics["cross-zone-MB"] * 1e6,
			AwareBytes:     aware.Metrics["cross-zone-MB"] * 1e6,
			FlatProvReads:  flat.Metrics["provider-reads"],
			AwareProvReads: aware.Metrics["provider-reads"],
		}
		if cz.AwareBytes > 0 {
			cz.ReductionX = cz.FlatBytes / cz.AwareBytes
		}
		doc.CrossZone = cz
	}
	if exp, ok := benches["BenchmarkExportImport"]; ok {
		doc.Export = &exportSummary{
			DeltaBytes:    exp.Metrics["delta-MB"] * 1e6,
			FullBytes:     exp.Metrics["full-MB"] * 1e6,
			ReductionX:    exp.Metrics["reduction-x"],
			ShippedChunks: exp.Metrics["shipped-chunks"],
		}
	}
	if *family == "scale" {
		// cpu=1 rows carry unsuffixed names; collect them in crowd-size
		// order. The 10k point is absent from -short (CI) runs, so the
		// summary simply holds the points that ran.
		sum := &scaleSummary{}
		for _, name := range []string{
			"BenchmarkFlashCrowdScale/inst-256",
			"BenchmarkFlashCrowdScale/inst-1024",
			"BenchmarkFlashCrowd10k",
		} {
			bl, ok := benches[name]
			if !ok {
				continue
			}
			sum.Points = append(sum.Points, scalePoint{
				Instances:   bl.Metrics["instances"],
				Booted:      bl.Metrics["booted"],
				NsOp:        bl.Metrics["ns/op"],
				AllocsOp:    bl.Metrics["allocs/op"],
				BytesOp:     bl.Metrics["B/op"],
				SimSteps:    bl.Metrics["sim-steps"],
				CompletionS: bl.Metrics["completion-s"],
			})
		}
		doc.Scale = sum
	}
	if *family == "metaoutage" {
		healthy, okH := benches["BenchmarkFlashCrowdMetaOutage/healthy"]
		hit, okO := benches["BenchmarkFlashCrowdMetaOutage/outage"]
		if okH && okO {
			doc.MetaOutage = &metaOutage{
				HealthyCompletionS: healthy.Metrics["completion-s"],
				OutageCompletionS:  hit.Metrics["completion-s"],
				CompletionDeltaS:   hit.Metrics["completion-s"] - healthy.Metrics["completion-s"],
				MetaFailovers:      hit.Metrics["meta-failovers"],
				MetaRereplicated:   hit.Metrics["meta-re-replicated"],
				FailedDescents:     hit.Metrics["failed-descents"],
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", *out, len(benches))
}

// matches reports whether name starts with any of the prefixes and
// none of the excludes.
func matches(name string, prefixes, excludes []string) bool {
	for _, x := range excludes {
		if strings.HasPrefix(name, x) {
			return false
		}
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// parseLine parses one `BenchmarkName   N   v1 unit1   v2 unit2 ...`
// result line; anything else (headers, PASS, ok) reports !ok.
func parseLine(line string) (string, benchLine, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", benchLine{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", benchLine{}, false
	}
	bl := benchLine{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", benchLine{}, false
		}
		bl.Metrics[fields[i+1]] = v
	}
	return fields[0], bl, true
}
