package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one run's saved standard output, parsed.
type savedRun struct {
	header runHeader
	result resultLine
}

// parseRun reads a saved run output: the perfbench-run header line and
// the result on the last line.
func parseRun(r io.Reader) (savedRun, error) {
	var s savedRun
	var last string
	haveHeader := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, headerPrefix); ok {
			if err := json.Unmarshal([]byte(h), &s.header); err != nil {
				return s, fmt.Errorf("run header: %w", err)
			}
			haveHeader = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if !haveHeader {
		return s, fmt.Errorf("no %q line", strings.TrimSpace(headerPrefix))
	}
	if err := json.Unmarshal([]byte(last), &s.result); err != nil {
		return s, fmt.Errorf("result line: %w", err)
	}
	return s, nil
}

// loadSet reads every file in dir as a saved run, keeping untraced runs
// grouped by workload.
func loadSet(dir string) (map[string][]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := map[string][]savedRun{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		s, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !s.header.Trace {
			set[s.header.Workload] = append(set[s.header.Workload], s)
		}
	}
	return set, nil
}

// metricRow is one workload×metric comparison.
type metricRow struct {
	workload, metric               string
	medA, q1A, q3A, medB, q1B, q3B float64
	ratio, worse, bound, spreadB   float64
	ok                             bool // no worse than the bound allows
	// resolved marks a change the noise cannot explain: the two sets'
	// interquartile ranges do not overlap, B's on the worse side.
	resolved bool
}

// compareSets compares set b against baseline a on every end-to-end
// metric of every workload both hold. A row passes when b's median is no
// worse than a's by more than the metric's bound; the failed-operation
// share must also be identical. A row is also marked resolved when b is
// worse and the sets' interquartile ranges do not overlap, which
// catches a slowdown smaller than a wide bound.
func compareSets(a, b map[string][]savedRun) (rows []metricRow, problems []string) {
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		problems = append(problems, "the sets share no workload")
	}
	for _, w := range names {
		fa, fb := failShare(a[w]), failShare(b[w])
		if fa != fb {
			problems = append(problems, fmt.Sprintf("%s: failed-operation share %v vs %v", w, fa, fb))
		}
		for _, d := range endToEnd {
			va, vb := values(a[w], d.Name), values(b[w], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				problems = append(problems, fmt.Sprintf("%s: %s missing", w, d.Name))
				continue
			}
			row := metricRow{workload: w, metric: d.Name, bound: d.Bound,
				medA: median(va), medB: median(vb)}
			row.q1A, row.q3A = quartiles(va)
			row.q1B, row.q3B = quartiles(vb)
			row.spreadB = (row.q3B - row.q1B) / row.medB
			row.ratio = row.medB / row.medA
			if d.Better == "lower" {
				row.worse = row.ratio - 1
				row.resolved = row.q1B > row.q3A
			} else {
				row.worse = 1 - row.ratio
				row.resolved = row.q3B < row.q1A
			}
			row.ok = row.worse <= d.Bound
			rows = append(rows, row)
		}
	}
	return rows, problems
}

func values(runs []savedRun, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// failShare is the failed share of attempted operations over a set's
// runs of one workload, as an exact fraction string.
func failShare(runs []savedRun) string {
	var att, fail int
	for _, r := range runs {
		att += r.result.Attempted
		fail += r.result.Failed
	}
	if fail == 0 {
		return "0"
	}
	return fmt.Sprintf("%d/%d", fail, att)
}

// compareDirs prints the comparison of two saved sets and reports
// whether every row is within its bound.
func compareDirs(w io.Writer, dirA, dirB string) (bool, error) {
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	rows, problems := compareSets(a, b)
	fmt.Fprintf(w, "%-9s %-22s %12s %25s %12s %25s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "median A", "[q1, q3] A", "median B", "[q1, q3] B", "B/A", "worse", "bound", "iqr B", "verdict")
	ok := len(problems) == 0
	for _, r := range rows {
		verdict := "within"
		switch {
		case !r.ok:
			verdict = "WORSE, beyond the bound"
			ok = false
		case r.resolved:
			verdict = "worse, resolved, within the bound"
		}
		fmt.Fprintf(w, "%-9s %-22s %12.5g %25s %12.5g %25s %8.4f %+7.3f %7.3f %7.3f  %s\n",
			r.workload, r.metric, r.medA, fmt.Sprintf("[%.5g, %.5g]", r.q1A, r.q3A),
			r.medB, fmt.Sprintf("[%.5g, %.5g]", r.q1B, r.q3B), r.ratio, r.worse, r.bound, r.spreadB, verdict)
	}
	for _, p := range problems {
		fmt.Fprintln(w, "problem:", p)
	}
	if ok {
		fmt.Fprintln(w, "compare: every metric within its bound")
	} else {
		fmt.Fprintln(w, "compare: FAILED")
	}
	return ok, nil
}
