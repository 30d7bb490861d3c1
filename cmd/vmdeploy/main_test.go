package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"blobvfs/internal/experiments"
)

// TestParseRejectsBadFlags: every out-of-range flag value is refused
// before a scenario runs, whichever scenario was asked for.
func TestParseRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-quick", "-cycles", "0", "churn"}, "cycles"},
		{[]string{"-quick", "-keep", "-1", "churn"}, "retention window -1"},
		{[]string{"-quick", "-instances", "-4", "flash"}, "-instances -4"},
		{[]string{"-quick", "-kill", "16", "degraded"}, "kill count 16 out of range [0,16)"},
		{[]string{"-quick", "-kill", "-1", "fig4"}, "kill count -1"},
		{[]string{"-sweep", "1,x", "fig4"}, `bad sweep entry "x"`},
	} {
		_, _, run, _, err := parse(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if len(run) != 0 {
			t.Errorf("parse(%q) selected %d scenarios beside its error", tc.args, len(run))
		}
	}
}

// TestParseSelectsScenarios: a figure panel selects its figure, `all`
// the whole suite, and the flags land in the sizes.
func TestParseSelectsScenarios(t *testing.T) {
	for target, want := range map[string]string{
		"fig4a": "fig4", "fig5b": "fig5", "fig6": "fig67", "fig7": "fig67", "fig67": "fig67", "sync": "sync",
	} {
		_, _, run, _, err := parse([]string{"-quick", target})
		if err != nil || len(run) != 1 || run[0].Name != want {
			t.Errorf("parse(%q) selected %v (err %v), want %s", target, run, err, want)
		}
	}
	p, sz, run, _, err := parse([]string{"-quick", "-seed", "7", "-instances", "10", "-kill", "3", "-sweep", "2, 4", "all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(run) != 12 || run[0].Name != "fig4" || run[11].Name != "sync" {
		t.Errorf("all selected %d scenarios", len(run))
	}
	if p.Seed != 7 || p.MaxInstances != 24 {
		t.Errorf("seed %d, max instances %d, want 7 and 24", p.Seed, p.MaxInstances)
	}
	if sz.Crowd != 10 || sz.Fig8 != 10 || sz.Churn != 10 || sz.Multisnap != 10 || sz.PerZone != 4 ||
		sz.Ablations != 16 || sz.Kill != 3 || len(sz.Sweep) != 2 || sz.Sweep[1] != 4 {
		t.Errorf("sizes = %+v", sz)
	}
	// A seed given on the command line is the seed, 0 included; without
	// -seed the parameters keep theirs.
	for args, want := range map[string]int64{"-seed 0": 0, "-seed 9": 9, "": experiments.Quick().Seed} {
		p, _, _, _, err := parse(append(append([]string{"-quick"}, strings.Fields(args)...), "sync"))
		if err != nil || p.Seed != want {
			t.Errorf("parse(-quick %s sync): seed %d (err %v), want %d", args, p.Seed, err, want)
		}
	}
}

// TestInstancesHelpNamesEveryResizedScenario: -instances resizes every
// single-size scenario but the ablations (Sizes.WithInstances), and its
// help says so.
func TestInstancesHelpNamesEveryResizedScenario(t *testing.T) {
	for _, name := range []string{"fig8", "flash", "churn", "degraded", "metaoutage", "multisnap", "crosszone"} {
		if !strings.Contains(instancesUsage, name) {
			t.Errorf("-instances help %q does not name %s", instancesUsage, name)
		}
	}
	if strings.Contains(instancesUsage, "ablations") {
		t.Errorf("-instances help %q names the ablations, which keep their size", instancesUsage)
	}
}

// TestQuickPrintsTheGoldens: vmdeploy prints a scenario through the
// same Scenario.Fprint the goldens are pinned with, so `vmdeploy -quick
// <name>` is testdata/golden/<name>.txt byte for byte, "completed in"
// line aside. sync and fig67 are the two that take milliseconds.
func TestQuickPrintsTheGoldens(t *testing.T) {
	for _, name := range []string{"sync", "fig67"} {
		p, sz, run, _, err := parse([]string{"-quick", name})
		if err != nil || len(run) != 1 {
			t.Fatalf("parse(-quick %s) selected %d scenarios (err %v)", name, len(run), err)
		}
		var b strings.Builder
		run[0].Fprint(&b, p, sz)
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("vmdeploy -quick %s differs from its golden\n--- want\n%s--- got\n%s", name, want, got)
		}
	}
}

// TestProfilesCoverTheRun: -cpuprofile and -memprofile write non-empty
// profiles of the scenario run, and a profile that cannot be created
// is an error.
func TestProfilesCoverTheRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	p, sz, run, prof, err := parse([]string{"-quick", "-cpuprofile", cpu, "-memprofile", mem, "multisnap"})
	if err != nil {
		t.Fatal(err)
	}
	if err := runAll(io.Discard, p, sz, run, prof); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty, want a profile", filepath.Base(path))
		}
	}
	prof.cpu = filepath.Join(dir, "missing", "cpu.prof")
	if err := runAll(io.Discard, p, sz, run, prof); err == nil {
		t.Error("a CPU profile in a missing directory was not an error")
	}
}

// TestCompletionLineHasPeakRSS: each scenario's closing line gives its
// wall time and, on Linux, a nonzero peak resident set.
func TestCompletionLineHasPeakRSS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the peak resident set is read on Linux only")
	}
	p, sz, run, prof, err := parse([]string{"-quick", "sync"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := runAll(&b, p, sz, run, prof); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	last := lines[len(lines)-1]
	_, tail, ok := strings.Cut(last, ", peak RSS ")
	var rss float64
	if _, err := fmt.Sscanf(tail, "%f MB)", &rss); !ok || !strings.HasPrefix(last, "(sync completed in ") || err != nil || rss <= 0 {
		t.Fatalf("closing line %q: want the wall time and a peak RSS", last)
	}
}
