// Command vmdeploy regenerates the paper's evaluation figures on the
// simulated cluster and prints them as aligned text tables.
//
// Usage:
//
//	vmdeploy [-quick] [-seed N] [-sweep 1,10,30,...] <scenario>|all
//
// The scenarios are the entries of experiments.Suite, in the order
// `all` prints them: fig4 (all four panels of the multideployment
// figure), fig5 (both multisnapshotting panels), fig67 (the Bonnie++
// comparison), fig8 (the Monte Carlo application), flash (the flash
// crowd with p2p sharing off/on), churn (the snapshot lifecycle:
// keep-last-K retention + garbage collection; see -cycles and -keep),
// degraded (the flash crowd while -kill providers fail mid-deployment,
// healthy baseline row included), crosszone (the flash crowd over 3
// availability zones, flat vs topology-aware policy;
// docs/topology.md), ablations (chunk size and replication degree),
// multisnap (the concurrent commit of all instances against a small
// pool, with its provider write RPCs per round; docs/perf.md),
// metaoutage (the flash crowd with replicated metadata while -kill
// metadata providers and one compute rack fail, against a healthy
// baseline; docs/faults.md), sync (an upstream lineage shipped to a
// disjoint downstream pool as one full archive plus per-commit
// deltas; docs/sync.md). A figure panel (fig4a, fig5b, fig6, fig7)
// selects its figure. -quick runs the scaled-down parameter set
// (shapes preserved, absolute values not comparable to the paper).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"blobvfs/internal/experiments"
)

// panels maps the figure-panel spellings onto their Suite entry.
var panels = map[string]string{
	"fig4a": "fig4", "fig4b": "fig4", "fig4c": "fig4", "fig4d": "fig4",
	"fig5a": "fig5", "fig5b": "fig5",
	"fig6": "fig67", "fig7": "fig67",
}

// parse turns the command line into the parameters, the sizes and the
// scenarios to run. Every flag value is checked here, before any
// scenario runs.
func parse(args []string) (experiments.Params, experiments.Sizes, []experiments.Scenario, error) {
	fs := flag.NewFlagSet("vmdeploy", flag.ExitOnError)
	quick := fs.Bool("quick", false, "scaled-down parameters (fast; shapes only)")
	seed := fs.Int64("seed", 0, "override the experiment seed")
	sweepArg := fs.String("sweep", "", "comma-separated instance counts (default 1,10,30,50,70,90,110)")
	instances := fs.Int("instances", 0, "instance count for fig8/flash/churn/degraded (defaults 100/256/32/256, or 16/64/8/64 with -quick)")
	cycles := fs.Int("cycles", 8, "snapshot cycles for churn")
	keep := fs.Int("keep", 2, "keep-last-K retention window for churn (0 = no retention)")
	kill := fs.Int("kill", 8, "providers killed mid-run for degraded and metaoutage")
	fs.Usage = func() {
		names := make([]string, len(experiments.Suite))
		for i, sc := range experiments.Suite {
			names[i] = sc.Name
		}
		fmt.Fprintf(fs.Output(), "usage: vmdeploy [flags] %s|all\n", strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited 2

	p, sz := experiments.Default(), experiments.DefaultSizes()
	if *quick {
		p, sz = experiments.Quick(), experiments.QuickSizes()
		p.MaxInstances = 24
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *instances < 0 {
		return p, sz, nil, fmt.Errorf("-instances %d: need 0 (the defaults) or more", *instances)
	}
	if *instances > 0 {
		sz = sz.WithInstances(*instances)
	}
	if *sweepArg != "" {
		sz.Sweep = nil
		for _, s := range strings.Split(*sweepArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return p, sz, nil, fmt.Errorf("bad sweep entry %q", s)
			}
			sz.Sweep = append(sz.Sweep, n)
		}
	}
	sz.Cycles, sz.Keep, sz.Kill = *cycles, *keep, *kill
	if err := sz.Validate(); err != nil {
		return p, sz, nil, err
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return p, sz, nil, fmt.Errorf("need exactly one scenario, got %d", fs.NArg())
	}
	target := fs.Arg(0)
	if name, ok := panels[target]; ok {
		target = name
	}
	var run []experiments.Scenario
	for _, sc := range experiments.Suite {
		if target == "all" || target == sc.Name {
			run = append(run, sc)
		}
	}
	if len(run) == 0 {
		fs.Usage()
		return p, sz, nil, fmt.Errorf("unknown scenario %q", target)
	}
	return p, sz, run, nil
}

func main() {
	p, sz, run, err := parse(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmdeploy:", err)
		os.Exit(2)
	}
	for _, sc := range run {
		start := time.Now()
		sc.Fprint(os.Stdout, p, sz)
		fmt.Printf("(%s completed in %s)\n\n", sc.Name, time.Since(start).Round(time.Millisecond))
	}
}
