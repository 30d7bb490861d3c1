package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Versioned goldens (a standing rule of the ROADMAP): the tables
// `vmdeploy -quick all` prints — every Suite entry rendered with
// Quick() at MaxInstances 24 and QuickSizes() — are pinned in
// testdata/golden/<name>.txt. Every column is modelled — the sim is
// deterministic — so the comparison is exact; the wall-clock
// "completed in" line vmdeploy appends is not part of a golden. A
// change that moves a number on purpose re-baselines with
// `make rebaseline` and says which numbers moved, and why, in
// CHANGES.md.

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from this run")

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".txt") }

func TestGoldenTables(t *testing.T) {
	p := Quick()
	p.MaxInstances = 24
	for _, sc := range Suite {
		t.Run(sc.Name, func(t *testing.T) {
			var b strings.Builder
			sc.Fprint(&b, p, QuickSizes())
			got := b.String()
			if *update {
				if err := os.WriteFile(goldenPath(sc.Name), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(sc.Name))
			if err != nil {
				t.Fatalf("%v (create it with `make rebaseline`)", err)
			}
			if got != string(want) {
				t.Errorf("%s moved; if that is intended, run `make rebaseline` and put the before/after with its reason in CHANGES.md\n--- want\n%s--- got\n%s", sc.Name, want, got)
			}
		})
	}
}

// TestSuiteAndGoldensAgree: the suite and the golden directory cannot
// drift apart — one golden per Suite name, no golden without an entry —
// and the two size sets are the ones vmdeploy has always run.
func TestSuiteAndGoldensAgree(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range Suite {
		if names[sc.Name] {
			t.Errorf("Suite lists %q twice", sc.Name)
		}
		names[sc.Name] = true
		if _, err := os.Stat(goldenPath(sc.Name)); err != nil {
			t.Errorf("Suite entry %q has no golden: %v", sc.Name, err)
		}
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".txt"); !names[name] {
			t.Errorf("golden %s has no Suite entry", f)
		}
	}

	wantQuick := Sizes{
		Sweep: []int{1, 4, 8, 16, 24},
		Fig8:  16, Crowd: 64, PerZone: 20, Churn: 8, Multisnap: 64, Ablations: 16,
		Cycles: 8, Keep: 2, Kill: 8,
	}
	wantDefault := Sizes{
		Sweep: []int{1, 10, 30, 50, 70, 90, 110},
		Fig8:  100, Crowd: 256, PerZone: 60, Churn: 32, Multisnap: 256, Ablations: 50,
		Cycles: 8, Keep: 2, Kill: 8,
	}
	if got := QuickSizes(); !reflect.DeepEqual(got, wantQuick) {
		t.Errorf("QuickSizes() = %+v, want %+v", got, wantQuick)
	}
	if got := DefaultSizes(); !reflect.DeepEqual(got, wantDefault) {
		t.Errorf("DefaultSizes() = %+v, want %+v", got, wantDefault)
	}
	for _, s := range []Sizes{wantQuick, wantDefault, wantQuick.WithInstances(4)} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	if got := wantQuick.WithInstances(64).PerZone; got != 22 {
		t.Errorf("a crowd of 64 puts %d instances in each of the 3 zones, want 22", got)
	}
}
