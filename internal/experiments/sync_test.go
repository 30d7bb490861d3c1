package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestSyncScenarioHeadline: the headline property — after the initial
// full ship, every delta round moves a small fraction of the image,
// and the aggregate reduction clears the benchmark gate with room to
// spare.
func TestSyncScenarioHeadline(t *testing.T) {
	p := Quick()
	pt := RunSync(p, SyncConfig{Rounds: 3})

	if got := len(pt.PerRound); got != pt.Rounds+1 {
		t.Fatalf("recorded %d rounds, want full + %d deltas", got, pt.Rounds)
	}
	full := pt.PerRound[0]
	if full.Stage != "full" {
		t.Fatalf("first round is %q, want the full ship", full.Stage)
	}
	if full.ShippedMB < pt.ImageMB {
		t.Errorf("full ship moved %.2f MB for a %.0f MB image", full.ShippedMB, pt.ImageMB)
	}
	for _, r := range pt.PerRound[1:] {
		if r.Versions != 1 {
			t.Errorf("%s carried %d versions, want 1", r.Stage, r.Versions)
		}
		if r.ShippedMB >= full.ShippedMB {
			t.Errorf("%s shipped %.2f MB, no smaller than the full %.2f MB",
				r.Stage, r.ShippedMB, full.ShippedMB)
		}
	}
	if pt.Reduction < 5 {
		t.Errorf("reduction %.2fx below the 5x gate", pt.Reduction)
	}

	tab := SyncTable(pt).String()
	for _, want := range []string{"full", "delta 1", "avg delta", "reduction", "x"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

// TestSyncScenarioDeterministic: same params, same archives, same
// counters — the scenario is bit-for-bit repeatable.
func TestSyncScenarioDeterministic(t *testing.T) {
	p := Quick()
	sc := SyncConfig{Rounds: 2, Providers: 2}
	a := RunSync(p, sc)
	b := RunSync(p, sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
