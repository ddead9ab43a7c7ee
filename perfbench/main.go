// Command perfbench is uexc's benchmark: four workloads driven through
// the public Go API and the uexc-serve HTTP API, each checked for
// correct output, each printing every end-to-end metric by name with
// its unit, and a traced mode that times the public entry point of
// every layer a workload passes through. README.md has the workloads,
// the metrics, and how to read them.
//
//	perfbench --workload campaign --seed 1 --seconds 15 --trace 0
//	perfbench --compare DIR_A DIR_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "run length: the work list is sized to take about this long on the reference host")
		trace    = flag.Int("trace", 0, "1 runs the traced mode, prints the per-layer metrics and writes the spans to .bench_build/spans-<workload>-<seed>.ndjson")
		compare  = flag.Bool("compare", false, "compare two sets of saved run outputs: perfbench --compare DIR_A DIR_B")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two directories of saved run outputs")
			return 2
		}
		ok, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	// All load comes from this one process; it never asks for more
	// parallelism than the host has.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	cfg := runCfg{workload: *workload, seed: *seed, scale: float64(*seconds), trace: *trace == 1}
	res, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.ndjson", cfg.workload, cfg.seed)
		if err := res.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(res.rec.spans), path)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runHeader is printed before the result so a saved output can be
// grouped by workload and explained by its host.
type runHeader struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    bool       `json:"trace"`
	Ops      int        `json:"ops"`
	Host     hostRecord `json:"host"`
}

const headerPrefix = "perfbench-run "

// print writes the human-readable report, the run header, and the
// result line, in that order.
func (r *run) print(w io.Writer) error {
	defs := endToEnd
	vals := r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, r.layer
	}
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.checks))
	for n := range r.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.checks[n]
		status := "ok"
		if !c.ok {
			status = "FAILED: " + c.detail
		}
		fmt.Fprintf(w, "check %-40s %s\n", n, status)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "failed op:", f)
	}
	hdr, err := json.Marshal(runHeader{Workload: r.cfg.workload, Seed: r.cfg.seed, Trace: r.cfg.trace, Ops: r.attempted, Host: r.host})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", headerPrefix, hdr)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
