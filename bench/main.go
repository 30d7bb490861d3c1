// Command bench is blobvfs's benchmark: five named workloads, each run in
// a process of its own, reporting end-to-end metrics (untraced reps) or
// per-layer metrics (counters, probes and one traced rep). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a workload run prints as the last line of
// its standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process and print its result as JSON")
		seed      = flag.Int64("seed", 42, "seed of every generated input")
		seconds   = flag.Float64("seconds", 25, "how long one run may take: its reps, with their setups and checks")
		trace     = flag.Int("trace", 0, "1: report per-layer metrics from counters, probes and one traced rep")
		probes    = flag.Bool("probes", false, "print the per-layer probe timings and exit")
		anchors   = flag.Bool("anchors", false, "check that the sim workloads reproduce the recorded scenarios")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var err error
	switch {
	case *probes:
		printResult(os.Stdout, result{Metrics: withUnits(runProbes(), layerProbes)}, layerProbes, false)
	case *anchors:
		err = runAnchors()
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *name == "":
		err = runAll(*seed, *seconds, *trace == 1)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// rep runs one repetition: setup, measured phase, checks.
func (w *workload) rep(seed int64, tr *tracer) (*rep, error) {
	switch w.kind {
	case kindHerd:
		return w.herdRep(seed, tr)
	case kindLive:
		return w.liveRep(seed, tr)
	}
	return w.deployRep(seed, tr)
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var res result
	if traced {
		res, err = w.perLayerRun(seed)
	} else {
		res, err = w.endToEndRun(seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct (%d of %d operations failed)", name, res.Failed, res.Attempted)
	}
	return nil
}

// sameModelled reports whether two reps of one seed agree on everything
// read from the virtual clock and the byte counters.
func sameModelled(a, b *rep) bool {
	return a.trafficB == b.trafficB && a.storedRatio == b.storedRatio &&
		a.completionS == b.completionS && slices.Equal(a.ops, b.ops)
}

// endToEndRun repeats the workload, untraced, and reports the
// end-to-end metrics.
//
// Rep i of the first w.minReps runs on subSeed(seed, i): the crowd
// workloads' modelled times swing by tens of percent with the launch
// jitter alone, so one deployment says little, and the modelled metrics
// are the medians over these w.minReps deployments. Further reps, for
// as many as fit into seconds, steady the host medians; they go round
// the same seeds again and must reproduce the modelled values exactly.
// A run is therefore a pure function of -seed on every modelled metric,
// however many reps its time allowed.
func (w *workload) endToEndRun(seed int64, seconds float64) (result, error) {
	begin := time.Now()
	var timed []*rep
	var setup []float64
	var longest time.Duration
	var peakMB float64
	res := result{Correct: true}
	for warm := w.warmup; ; {
		t0 := time.Now()
		sub := subSeed(seed, len(timed)%w.minReps)
		r, err := w.rep(sub, nil)
		if err != nil && r == nil {
			return res, err
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			res.Correct = false
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if warm > 0 {
			warm-- // caches and the heap settle on a first, discarded rep
			continue
		}
		if n := len(timed); n >= w.minReps && !sameModelled(timed[n%w.minReps], r) {
			fmt.Fprintf(os.Stderr, "bench: %s: seed %d gave two different sets of modelled values\n", w.name, sub)
			res.Correct = false
		}
		timed = append(timed, r)
		for k := 0; k < w.extraSetups; k++ {
			s, err := w.timeSetup(sub)
			if err != nil {
				return res, err
			}
			setup = append(setup, s)
		}
		if len(timed) == w.minReps {
			// The peak of the reps every run makes: how many more fit
			// depends on the machine, and the peak creeps up with them.
			peakMB = peakRSSMB()
		}
		// One more rep only if a rep as long as the longest so far
		// still ends inside seconds.
		longest = max(longest, time.Since(t0))
		if len(timed) >= w.minReps && (time.Since(begin)+longest).Seconds() > seconds {
			break
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	var host, allocs, allocMB, completion, p50, p90, traffic, stored []float64
	for i, r := range timed {
		setup = append(setup, r.setupS)
		host = append(host, r.host.wall.Seconds())
		allocs = append(allocs, float64(r.host.mallocs))
		allocMB = append(allocMB, float64(r.host.bytes)/1e6)
		if i < w.minReps {
			completion = append(completion, r.completionS)
			p50 = append(p50, quantile(r.ops, 0.5))
			p90 = append(p90, quantile(r.ops, 0.9))
			traffic = append(traffic, float64(r.trafficB)/1e6)
			stored = append(stored, r.storedRatio)
		}
	}
	values := map[string]float64{
		"setup_s":       median(setup),
		"completion_s":  median(completion),
		"op_p50_s":      median(p50),
		"op_p90_s":      median(p90),
		"traffic_mb":    median(traffic),
		"stored_ratio":  median(stored),
		"host_s":        median(host),
		"host_allocs":   median(allocs),
		"host_alloc_mb": median(allocMB),
		"host_peak_mb":  peakMB,
	}
	res.Metrics = withUnits(values, endToEnd)
	took := time.Since(begin).Seconds()
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d timed reps on %d seeds, %d setups, %.1f s; host_s per rep %.3f\n",
		w.name, seed, len(timed), w.minReps, len(setup), took, host)
	if took > seconds {
		fmt.Fprintf(os.Stderr, "bench: %s: the run took %.1f s, over the %g s of -seconds: it reports on no fewer than %d reps\n",
			w.name, took, seconds, w.minReps)
	}
	return res, nil
}

// perLayerRun runs one untraced and one traced rep and reports the
// per-layer metrics: the untraced rep's counters, the probes, and the
// figures derived from the traced rep's spans. The traced rep must
// leave every modelled value where the untraced one had it.
func (w *workload) perLayerRun(seed int64) (result, error) {
	res := result{Correct: true}
	for i := 0; i < w.warmup; i++ {
		r, err := w.rep(seed, nil)
		if err != nil {
			return res, err
		}
		res.Attempted, res.Failed = res.Attempted+r.attempted, res.Failed+r.failed
	}
	plain, err := w.rep(seed, nil)
	if err != nil {
		return res, err
	}
	tr := newTracer()
	traced, err := w.rep(seed, tr)
	if err != nil {
		return res, err
	}
	res.Attempted += plain.attempted + traced.attempted
	res.Failed += plain.failed + traced.failed
	if !sameModelled(plain, traced) {
		fmt.Fprintf(os.Stderr, "bench: %s: tracing moved a modelled metric\n", w.name)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0

	values := runProbes()
	for k, v := range plain.layer {
		values[k] = v
	}
	for k, v := range tr.traceMetrics(w.kind == kindLive) {
		values[k] = v
	}
	values["trace.overhead_frac"] = traced.host.wall.Seconds()/plain.host.wall.Seconds() - 1
	res.Metrics = withUnits(values, perLayer)
	path, err := tr.write(w.name, seed, w.kind == kindLive)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d spans in %s\n", w.name, seed, len(tr.spans), path)
	return res, nil
}

// withUnits keeps exactly the metrics defs lists; one a workload does
// not produce reads 0.
func withUnits(values map[string]float64, defs []metricDef) map[string]metricVal {
	out := make(map[string]metricVal, len(defs))
	for _, d := range defs {
		out[d.name] = metricVal{Value: values[d.name], Unit: d.unit}
	}
	return out
}
