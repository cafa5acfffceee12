package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// lists the runs print in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 20 || pct != 100*20.0/30 {
		t.Errorf("tail of 1..30 = %v at %v%%; want 20 with ten samples beyond", v, pct)
	}
	if v, pct := tail(xs[:20]); v != 30 || pct != 100 {
		t.Errorf("tail of 20 samples = %v at %v%%; want the maximum", v, pct)
	}
}

func TestSelfTimes(t *testing.T) {
	s := &spans{all: []span{
		{Name: "tick", Start: 0, End: 10e6, Parent: -1},
		{Name: "actors", Start: 0, End: 6e6, Parent: 0},
		{Name: "step", Start: 6e6, End: 9e6, Parent: 0},
	}}
	got := s.selfTimes()
	if got["tick"] != 1 || got["actors"] != 6 || got["step"] != 3 {
		t.Errorf("self times %v; want tick 1, actors 6, step 3 (ms)", got)
	}
}
