// Command vmdeploy regenerates the paper's evaluation figures on the
// simulated cluster and prints them as aligned text tables.
//
// Usage:
//
//	vmdeploy [-quick] [-seed N] [-sweep 1,10,30,...] [-cpuprofile FILE] [-memprofile FILE] <scenario>|all
//
// The scenarios are the entries of experiments.Suite, in the order
// `all` prints them (README.md says what each runs); a figure panel
// (fig4a, fig5b, fig6, fig7) selects its figure. -quick runs the
// scaled-down parameters: shapes hold, absolute values are not the
// paper's. -cpuprofile and -memprofile profile the scenario runs.
// Each scenario ends with a line giving its wall time and, on Linux,
// the process's peak resident set so far.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
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

// instancesUsage is the -instances help. It names every scenario
// Sizes.WithInstances resizes.
const instancesUsage = "instance count for fig8/flash/churn/degraded/metaoutage/multisnap, " +
	"and crosszone's total over its 3 zones (defaults 100/256/32/256/256/256 and 3×60, " +
	"or 16/64/8/64/64/64 and 3×20 with -quick)"

// profiles names the host profile files to write; empty writes none.
type profiles struct{ cpu, mem string }

// parse turns the command line into the parameters, the sizes, the
// scenarios to run and the profiles to write. Every flag value is
// checked here, before any scenario runs.
func parse(args []string) (experiments.Params, experiments.Sizes, []experiments.Scenario, profiles, error) {
	fs := flag.NewFlagSet("vmdeploy", flag.ExitOnError)
	quick := fs.Bool("quick", false, "scaled-down parameters (fast; shapes only)")
	seed := fs.Int64("seed", 0, "override the experiment seed")
	sweepArg := fs.String("sweep", "", "comma-separated instance counts (default 1,10,30,50,70,90,110)")
	instances := fs.Int("instances", 0, instancesUsage)
	cycles := fs.Int("cycles", 8, "snapshot cycles for churn")
	keep := fs.Int("keep", 2, "keep-last-K retention window for churn (0 = no retention)")
	kill := fs.Int("kill", 8, "providers killed mid-run for degraded and metaoutage")
	var prof profiles
	fs.StringVar(&prof.cpu, "cpuprofile", "", "write a CPU profile of the scenario runs to `file`")
	fs.StringVar(&prof.mem, "memprofile", "", "write an allocation profile, taken after the scenario runs, to `file`")
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
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			p.Seed = *seed // -seed 0 too: any value given is the seed
		}
	})
	if *instances < 0 {
		return p, sz, nil, prof, fmt.Errorf("-instances %d: need 0 (the defaults) or more", *instances)
	}
	if *instances > 0 {
		sz = sz.WithInstances(*instances)
	}
	if *sweepArg != "" {
		sz.Sweep = nil
		for _, s := range strings.Split(*sweepArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return p, sz, nil, prof, fmt.Errorf("bad sweep entry %q", s)
			}
			sz.Sweep = append(sz.Sweep, n)
		}
	}
	sz.Cycles, sz.Keep, sz.Kill = *cycles, *keep, *kill
	if err := sz.Validate(); err != nil {
		return p, sz, nil, prof, err
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return p, sz, nil, prof, fmt.Errorf("need exactly one scenario, got %d", fs.NArg())
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
		return p, sz, nil, prof, fmt.Errorf("unknown scenario %q", target)
	}
	return p, sz, run, prof, nil
}

// runAll prints every scenario of run to w. The CPU profile covers the
// scenario runs only, and the allocation profile is written after them.
func runAll(w io.Writer, p experiments.Params, sz experiments.Sizes, run []experiments.Scenario, prof profiles) (err error) {
	if prof.cpu != "" {
		f, ferr := os.Create(prof.cpu)
		if ferr != nil {
			return ferr
		}
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	for _, sc := range run {
		start := time.Now()
		sc.Fprint(w, p, sz)
		fmt.Fprintf(w, "(%s completed in %s%s)\n\n", sc.Name, time.Since(start).Round(time.Millisecond), peakRSS())
	}
	if prof.mem == "" {
		return nil
	}
	f, err := os.Create(prof.mem)
	if err != nil {
		return err
	}
	runtime.GC() // the profile counts allocations up to the last collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	p, sz, run, prof, err := parse(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmdeploy:", err)
		os.Exit(2)
	}
	if err := runAll(os.Stdout, p, sz, run, prof); err != nil {
		fmt.Fprintln(os.Stderr, "vmdeploy:", err)
		os.Exit(1)
	}
}
