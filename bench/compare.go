package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

func loadResults(path string) (resultsFile, error) {
	var f resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// series is one end-to-end metric's value on each run of a workload.
func series(rec workloadRecord, metric string) []float64 {
	var out []float64
	for _, r := range rec.Runs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4) —
// the figure the driver holds against a metric's bound. Fewer than two
// values have no spread.
func spread(values []float64) float64 {
	m := len(values)
	if m < 2 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// printSpreads shows a results file's own noise floor on standard error.
func printSpreads(f resultsFile) {
	fmt.Fprintf(os.Stderr, "%-14s %-24s %16s %8s %6s\n", "workload", "metric", "median", "spread", "bound")
	for _, rec := range f.Workloads {
		for _, mi := range endToEnd {
			v := series(rec, mi.Name)
			if len(v) == 0 {
				continue
			}
			note := ""
			if sp := spread(v); sp > mi.Bound && mi.Name != "setup_s" {
				note = "  spread over bound"
			}
			fmt.Fprintf(os.Stderr, "%-14s %-24s %16.4f %8.4f %6.2f%s\n", rec.Name, mi.Name, median(v), spread(v), mi.Bound, note)
		}
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians, how
// much b is worse than a as a share of a, the bound, and a verdict:
//
//	ok          b is no worse than a by more than the bound
//	worse       it is, and the runs of both files are steadier than the bound
//	unresolved  either file's spread is wider than the bound (or it has a
//	            single run), unless every run of b beats every run of a
//
// More failed ops in b than in a is worse whatever the metrics say.
func compareFiles(pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Printf("a: %s  commit %.12s dirty=%v host %s go %s\n", pathA, a.Manifest.Commit, a.Manifest.Dirty, a.Manifest.Host, a.Manifest.GoVersion)
	fmt.Printf("b: %s  commit %.12s dirty=%v host %s go %s\n", pathB, b.Manifest.Commit, b.Manifest.Dirty, b.Manifest.Host, b.Manifest.GoVersion)
	fmt.Printf("%-14s %-24s %16s %16s %8s %6s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "a spread", "b spread", "verdict")
	byName := map[string]workloadRecord{}
	for _, rec := range b.Workloads {
		byName[rec.Name] = rec
	}
	anyWorse := false
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, ra.Name)
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			fmt.Printf("%-14s %-24s %16.4f %16.4f %8s %6s %8s %8s  worse\n", ra.Name, "ops_failed_share", fa, fb, "", "any", "", "")
			anyWorse = true
		}
		for _, mi := range endToEnd {
			va, vb := series(ra, mi.Name), series(rb, mi.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: %s is missing from a file", ra.Name, mi.Name)
			}
			ma, mb := median(va), median(vb)
			by := (mb - ma) / ma
			allBetter := slices.Max(vb) < slices.Min(va)
			if mi.Better == "higher" {
				by = (ma - mb) / ma
				allBetter = slices.Min(vb) > slices.Max(va)
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case allBetter:
			case !(sa <= mi.Bound && sb <= mi.Bound): // NaN, a single run, is unresolved too
				verdict = "unresolved"
			case by > mi.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Printf("%-14s %-24s %16.4f %16.4f %+8.4f %6.2f %8.4f %8.4f  %s\n", ra.Name, mi.Name, ma, mb, by, mi.Bound, sa, sb, verdict)
		}
	}
	return anyWorse, nil
}

func failedShare(rec workloadRecord) float64 {
	var failed, attempted int
	for _, r := range rec.Runs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return div(float64(failed), float64(attempted))
}
