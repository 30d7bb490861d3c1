package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// toy shrinks a workload to 8 instances, an 8 MiB image and one timed
// rep; the code paths are the benchmark's, the sizes are not.
func toy(w *workload) *workload {
	w.instances = 8
	w.minReps, w.warmup = 1, 0
	if w.shape == aggregated {
		w.providers = 8
	}
	w.imageSize = 8 * mib
	w.boot.ImageSize, w.boot.TouchedBytes, w.boot.Extents = 8*mib, 1*mib, 8
	if w.diff > 0 {
		w.diff = 1 * mib
	}
	return w
}

func toys() []*workload {
	ws := workloads()
	for _, w := range ws {
		toy(w)
	}
	return ws
}

const testSeed = 7

// Every workload, at toy scale: the same seed gives the same modelled
// values, a traced rep gives them too, nothing fails, and every
// per-layer name a rep, the tracer or a probe produces is one that
// metrics.go lists — and the other way round.
func TestWorkloads(t *testing.T) {
	produced := map[string]bool{"trace.overhead_frac": true}
	for k := range runProbes() {
		produced[k] = true
	}
	for _, w := range toys() {
		plain, err := w.rep(testSeed, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		again, err := w.rep(testSeed, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := newTracer()
		traced, err := w.rep(testSeed, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*rep{plain, again, traced} {
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
			}
		}
		if !sameModelled(plain, again) {
			t.Errorf("%s: two reps of seed %d disagree on a modelled metric", w.name, testSeed)
		}
		if !sameModelled(plain, traced) {
			t.Errorf("%s: tracing moved a modelled metric", w.name)
		}
		if plain.completionS <= 0 || len(plain.ops) == 0 || plain.trafficB <= 0 || plain.storedRatio <= 0 {
			t.Errorf("%s: an end-to-end value is zero: completion %v, %d ops, traffic %d, stored %v",
				w.name, plain.completionS, len(plain.ops), plain.trafficB, plain.storedRatio)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: the traced rep recorded no span", w.name)
		}
		for k := range plain.layer {
			produced[k] = true
		}
		for k := range tr.traceMetrics(w.kind == kindLive) {
			produced[k] = true
		}
	}
	listed := make(map[string]bool)
	for _, d := range perLayer {
		if listed[d.name] {
			t.Errorf("per-layer metric %s is listed twice", d.name)
		}
		listed[d.name] = true
		if !produced[d.name] {
			t.Errorf("per-layer metric %s is listed but nothing produces it", d.name)
		}
	}
	for k := range produced {
		if !listed[k] {
			t.Errorf("per-layer metric %s is produced but not listed", k)
		}
	}
}

// -seed must reach the generated inputs: another seed gives instance 0
// another boot trace, the same seed the same one.
func TestSeedFeedsBootTrace(t *testing.T) {
	w := toy(workloads()[0])
	trace := func(seed int64) any {
		sc, err := w.newSim(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sc.orch.TraceFor(0)
	}
	if !reflect.DeepEqual(trace(testSeed), trace(testSeed)) {
		t.Error("the same seed gave two different boot traces")
	}
	if reflect.DeepEqual(trace(testSeed), trace(testSeed+1)) {
		t.Error("two seeds gave the same boot trace")
	}
}

// A run prints exactly the end-to-end names, all non-zero.
func TestEndToEndRun(t *testing.T) {
	for _, w := range toys() {
		res, err := w.endToEndRun(testSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
			}
		}
	}
}

// BENCHMARK.json and the tables of metrics.go and workloads.go say the
// same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range file.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads() {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads:\n got %q\nwant %q", names, want)
	}
	same := func(what string, got []metric, defs []metricDef, bounded bool) {
		var g, w []string
		for _, m := range got {
			s := m.Name + " " + m.Unit + " " + m.Better
			if m.Bound != nil {
				b, _ := json.Marshal(*m.Bound)
				s += " " + string(b)
			}
			g = append(g, s)
		}
		for _, d := range defs {
			s := d.name + " " + d.unit + " " + d.better
			if bounded {
				b, _ := json.Marshal(d.bound)
				s += " " + string(b)
			}
			w = append(w, s)
		}
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %q\nwant %q", what, g, w)
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %q", file.Paths)
	}
}
