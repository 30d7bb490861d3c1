package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// child runs one workload in a fresh process of this binary, so that
// host_peak_mb is the workload's own, and parses the result it prints.
func child(name string, seed int64, seconds float64, traced bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil && err == nil {
		err = fmt.Errorf("no result on the last line of output: %w", jerr)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// printResult prints the metrics defs lists: name, value, unit,
// direction and, for the gated ones, the bound. skipZero leaves out what
// the run did not produce.
func printResult(out io.Writer, res result, defs []metricDef, skipZero bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		v := res.Metrics[d.name].Value
		if skipZero && v == 0 {
			continue
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("may worsen %g%%", d.bound*100)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s is better\t%s\n", d.name, v, d.unit, d.better, bound)
	}
	tw.Flush()
}

// runAll runs the five workloads, each in a process of its own, and
// prints every end-to-end metric; with traced, what a second, traced run
// of each gave its layers to do, and once at the end the probe timings,
// which every traced run takes and which do not depend on the workload.
func runAll(seed int64, seconds float64, traced bool) error {
	failed := false
	var last result
	for _, w := range workloads() {
		res, err := child(w.name, seed, seconds, false)
		if err != nil {
			return err
		}
		fmt.Printf("%s (seed %d): %s\n", w.name, seed, w.why)
		fmt.Printf("  failed_frac  %d of %d operations\n", res.Failed, res.Attempted)
		printResult(os.Stdout, res, endToEnd, false)
		failed = failed || !res.Correct
		if !traced {
			continue
		}
		if res, err = child(w.name, seed, seconds, true); err != nil {
			return err
		}
		printResult(os.Stdout, res, layerCounts, true)
		failed = failed || !res.Correct
		last = res
	}
	if traced {
		fmt.Println("probes:")
		printResult(os.Stdout, last, layerProbes, false)
	}
	if failed {
		return fmt.Errorf("a workload's outputs were not correct")
	}
	return nil
}

// setupFloorS is the absolute slack -selfcheck gives setup_s: a setup
// of a few tens of milliseconds moves by more than its bound from
// scheduling alone.
const setupFloorS = 0.05

// runSelfcheck runs the full set twice in fresh processes and fails if
// any end-to-end metric of one commit disagrees with itself by more
// than its bound. Exact metrics must agree to the last digit.
func runSelfcheck(seed int64, seconds float64) error {
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\trun 1\trun 2\tspread\tbound\t")
	for _, w := range workloads() {
		a, err := child(w.name, seed, seconds, false)
		if err != nil {
			return err
		}
		b, err := child(w.name, seed, seconds, false)
		if err != nil {
			return err
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed_frac\t%d/%d\t%d/%d\t\t0\tFAIL\n", w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			bad++
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			spread := math.Abs(x-y) / math.Min(x, y)
			bound, verdict := fmt.Sprintf("%g%%", d.bound*100), ""
			switch {
			case d.exact:
				bound = "exact"
				if x != y {
					verdict = "FAIL"
				}
			case d.name == "setup_s" && math.Abs(x-y) <= setupFloorS:
			case spread > d.bound:
				verdict = "FAIL"
			}
			if verdict != "" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n", w.name, d.name, x, y, spread*100, bound, verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code", bad)
	}
	return nil
}
