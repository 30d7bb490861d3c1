package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev, want)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("Summarize(nil) = %+v", z)
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip degenerate inputs
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowAlignment(t *testing.T) {
	tb := &Table{Columns: []string{"col", "value"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The "value" column must start at the same offset on each line.
	idx := strings.Index(lines[1], "1")
	idx2 := strings.Index(lines[2], "22")
	if idx != idx2 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}
