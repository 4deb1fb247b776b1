package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"commprof"
)

func TestMain(m *testing.M) {
	runChildIfAsked() // the go-probe workload re-execs the test binary as its target
	os.Exit(m.Run())
}

type step struct {
	tid   int32
	write bool
}

func runOracle(t *testing.T, threads int, steps []step) *oracle {
	t.Helper()
	o, err := newOracle(threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		o.observe(s.write, 0x1000, 4, s.tid)
	}
	return o
}

func wantBytes(t *testing.T, o *oracle, want map[[2]int]uint64) {
	t.Helper()
	var total uint64
	for w, row := range o.bytes {
		for r, got := range row {
			if got != want[[2]int{w, r}] {
				t.Errorf("bytes[%d][%d] = %d, want %d", w, r, got, want[[2]int{w, r}])
			}
			total += got
		}
	}
	if o.total != total {
		t.Errorf("total = %d, cells sum to %d", o.total, total)
	}
}

// The paper's Fig. 2 ordering on one location, as internal/experiments
// replays it through the real detector: only the first read per (thread,
// value epoch) by a thread other than the writer communicates.
func TestOracleFigure2(t *testing.T) {
	o := runOracle(t, 4, []step{
		{1, true},
		{2, false}, {2, false}, // 1->2 once; the repeat is gray
		{3, false},             // 1->3
		{1, false},             // own value
		{2, true},              // new epoch
		{1, false},             // 2->1
		{3, false}, {3, false}, // 2->3 once
		{2, false}, // own value
	})
	wantBytes(t, o, map[[2]int]uint64{{1, 2}: 4, {1, 3}: 4, {2, 1}: 4, {2, 3}: 4})
}

func TestOracleWriteResetsReaders(t *testing.T) {
	o := runOracle(t, 2, []step{{0, true}, {1, false}, {0, true}, {1, false}, {1, false}})
	wantBytes(t, o, map[[2]int]uint64{{0, 1}: 8})
}

func TestOracleSelfReadIsNotCommunication(t *testing.T) {
	o := runOracle(t, 2, []step{{0, true}, {0, false}, {0, false}})
	wantBytes(t, o, nil)
}

func TestOracleReadBeforeAnyWrite(t *testing.T) {
	// The early read communicates nothing and must not mask the read that
	// follows the first write.
	o := runOracle(t, 2, []step{{1, false}, {0, true}, {1, false}})
	wantBytes(t, o, map[[2]int]uint64{{0, 1}: 4})
}

func TestOracleRejectsTooManyThreads(t *testing.T) {
	if _, err := newOracle(maxOracleThreads + 1); err == nil {
		t.Fatal("no error for a thread count wider than the reader mask")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for name, gen := range map[string]func(int64, int) []commprof.Access{"synth-local": synthLocal, "synth-spread": synthSpread} {
		a, b, c := streamHash(gen(7, smokeSynthLen)), streamHash(gen(7, smokeSynthLen)), streamHash(gen(8, smokeSynthLen))
		if a != b {
			t.Errorf("%s: seed 7 hashed %x then %x", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed %x", name, a)
		}
	}
}

func TestAnalyticMatrix(t *testing.T) {
	m := analyticMatrix(10, 8) // phases 1..7: readers 1,2,3,0,1,2,3
	want := [][]uint64{{0, 160, 0, 0}, {0, 0, 160, 0}, {0, 0, 0, 160}, {80, 0, 0, 0}}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Errorf("analytic[%d][%d] = %d, want %d", i, j, m[i][j], want[i][j])
			}
		}
	}
}

// TestSmoke runs every workload end to end and staged, one pass at reduced
// size, on two seeds, with every correctness check live, and holds the
// emitted names to the catalogue.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := config{seed: seed, small: true}
			e2e, err := runEndToEnd(w, cfg, 0, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			checkResult(t, w.Name, e2e, endToEnd)
			for name, v := range e2e.Metrics {
				if v.Value == 0 {
					t.Errorf("%s seed %d: end-to-end metric %s is 0", w.Name, seed, name)
				}
			}
			staged, err := runTraced(w, cfg, 0, 1, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatalf("%s seed %d staged: %v", w.Name, seed, err)
			}
			checkResult(t, w.Name, staged, perLayer)
		}
	}
}

func checkResult(t *testing.T, workload string, res result, catalogue []metricInfo) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v, %d of %d ops failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(catalogue) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", workload, len(res.Metrics), len(catalogue))
	}
	for _, mi := range catalogue {
		v, ok := res.Metrics[mi.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, mi.Name)
		} else if v.Unit != mi.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v %q, want a finite number of %q", workload, mi.Name, v.Value, v.Unit, mi.Unit)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, equal to the catalogue, which the program emits, and inside the
// driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloadCatalogue) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalogue %d", len(file.Workloads), len(workloadCatalogue))
	}
	for i, w := range workloadCatalogue {
		checkName(w.Name)
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), catalogue %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricInfo, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, mi := range want {
			checkName(mi.Name)
			g := got[i]
			if g.Name != mi.Name || g.Unit != mi.Unit || g.Better != mi.Better || !unit.MatchString(mi.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, mi)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metric has a bound", mi.Name)
			case bounded && (g.Bound == nil || *g.Bound != mi.Bound || mi.Bound <= 0 || mi.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the catalogue, limit 0.25", mi.Name, g.Bound, mi.Bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", endToEnd[0])
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", file.RunSeconds)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	if got, want := spread(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("a single run has a spread")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 []float64, failed int) resultsFile {
		rec := workloadRecord{Name: "replay"}
		for i, v := range p50 {
			res := result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
			for _, mi := range endToEnd {
				res.Metrics[mi.Name] = metricValue{Value: 100, Unit: mi.Unit}
			}
			res.Metrics["ns_per_access_p50"] = metricValue{Value: v, Unit: "ns/access"}
			rec.Runs = append(rec.Runs, runRecord{Seed: int64(i), Result: res})
		}
		return resultsFile{Workloads: []workloadRecord{rec}}
	}
	write := func(f resultsFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name  string
		b     resultsFile
		worse bool
	}{
		{"same", mk(steady, 0), false},
		{"slower than the bound", mk([]float64{150, 151, 149, 150, 152}, 0), true},
		{"slower but noisy is unresolved", mk([]float64{100, 150, 210, 160, 120}, 0), false},
		{"faster though noisy", mk([]float64{50, 90, 60, 70, 55}, 0), false},
		{"a failed op", mk(steady, 1), true},
	} {
		worse, err := compareFiles(write(mk(steady, 0)), write(tc.b))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse = %v, want %v", tc.name, worse, tc.worse)
		}
	}
}
