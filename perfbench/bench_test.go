package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of none is not NaN")
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0.5, 0.2, 0.9, 0.4, 0.7, 0.1, 0.3}, 0.2, 0.7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// BENCHMARK.json is what the benchmark is judged by; the binary must
// print exactly the metrics and workloads it declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "campaign,difftest,serve,paper"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s has no implementation", n)
		}
	}
	if len(workloads) != len(names) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(names))
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	// Set-up time is noisiest and carries the largest bound.
	setup := endToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("the first end-to-end metric is %+v, not set-up time", setup)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s bound %v outside (0, min(0.25, setup_s bound)]", d.Name, d.Bound)
		}
	}
}

// synthSet builds a saved set of n runs per workload whose values wobble
// by a few percent around base, every time metric scaled by slow.
func synthSet(n int, slow float64, phase int) map[string][]savedRun {
	set := map[string][]savedRun{}
	for _, w := range []string{"campaign", "paper"} {
		for i := 0; i < n; i++ {
			wobble := 1 + 0.02*math.Sin(float64(i*7+phase))
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				v := 100 * wobble
				if strings.HasPrefix(d.Name, "sim_") {
					v = 8.52
				} else if d.Better == "higher" {
					v /= slow
				} else {
					v *= slow
				}
				m[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			set[w] = append(set[w], savedRun{
				header: runHeader{Workload: w, Seed: int64(i)},
				result: resultLine{Correct: true, Attempted: 1000, Metrics: m},
			})
		}
	}
	return set
}

func TestCompareFlagsPlantedSlowdown(t *testing.T) {
	a := synthSet(10, 1, 0)
	rows, problems := compareSets(a, synthSet(10, 1, 3))
	if len(problems) > 0 {
		t.Fatalf("problems: %v", problems)
	}
	for _, r := range rows {
		if !r.ok || r.resolved {
			t.Errorf("same-distribution sets: %s/%s flagged (worse %+.3f)", r.workload, r.metric, r.worse)
		}
	}
	rows, _ = compareSets(a, synthSet(10, 1.2, 3))
	for _, r := range rows {
		flagged := !r.ok || r.resolved
		switch {
		case strings.HasPrefix(r.metric, "sim_") && flagged:
			t.Errorf("unchanged %s/%s flagged", r.workload, r.metric)
		case !strings.HasPrefix(r.metric, "sim_") && !flagged:
			t.Errorf("planted 20%% slowdown not flagged on %s/%s (worse %+.3f)", r.workload, r.metric, r.worse)
		}
	}
	// A slowdown past every bound fails the comparison outright.
	rows, _ = compareSets(a, synthSet(10, 1.4, 3))
	for _, r := range rows {
		if !strings.HasPrefix(r.metric, "sim_") && r.ok {
			t.Errorf("planted 40%% slowdown within the bound on %s/%s", r.workload, r.metric)
		}
	}
}

func TestCompareFailedShareMustMatch(t *testing.T) {
	a, b := synthSet(3, 1, 0), synthSet(3, 1, 0)
	b["paper"][0].result.Failed = 1
	if _, problems := compareSets(a, b); len(problems) != 1 {
		t.Errorf("a differing failed share gave problems %v", problems)
	}
}

// Saved sets of real runs from one tree, made with runset.sh minutes
// apart: they must compare within every bound, and a 20% slowdown
// planted into a copy of the first must be flagged on every workload's
// throughput and median.
func TestCompareRealSets(t *testing.T) {
	a, err := loadSet(filepath.Join("testdata", "set-a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadSet(filepath.Join("testdata", "set-b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("sets hold %d and %d workloads, want 4", len(a), len(b))
	}
	rows, problems := compareSets(a, b)
	for _, r := range rows {
		if !r.ok {
			problems = append(problems, r.workload+"/"+r.metric)
		}
	}
	if len(problems) > 0 {
		t.Errorf("two sets from one tree disagree: %v", problems)
	}
	slow, err := loadSet(filepath.Join("testdata", "set-a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range slow {
		for _, r := range runs {
			m := r.result.Metrics
			for name, f := range map[string]float64{"op_p50_ms": 1.2, "op_p90_ms": 1.2, "ops_per_s": 1 / 1.2} {
				v := m[name]
				v.Value *= f
				m[name] = v
			}
		}
	}
	rows, _ = compareSets(a, slow)
	for _, r := range rows {
		if (r.metric == "op_p50_ms" || r.metric == "ops_per_s") && r.ok && !r.resolved {
			t.Errorf("planted 20%% slowdown not flagged on %s/%s (worse %+.3f)", r.workload, r.metric, r.worse)
		}
	}
}

// A tiny run of every workload passes its own output checks.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			if trace && name != "paper" && name != "serve" {
				continue // paper's traced run exercises every probe
			}
			cfg := runCfg{workload: name, seed: 7, scale: 0.05, trace: trace}
			r, err := execute(workloads[name], cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.correct() || r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed, checks %+v, failures %v",
					name, trace, r.correct(), r.failed, r.attempted, r.checks, r.failures)
			}
			defs, vals := endToEnd, r.e2e
			if trace {
				defs, vals = perLayer, r.layer
			}
			for _, d := range defs {
				if v, ok := vals[d.Name]; !ok || math.IsNaN(v) {
					t.Errorf("%s trace=%v: %s not measured", name, trace, d.Name)
				}
			}
		}
	}
}
