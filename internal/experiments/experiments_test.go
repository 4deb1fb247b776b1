package experiments

import (
	"strings"
	"testing"

	"commprof/internal/obs"
	"commprof/internal/splash"
)

// testEnv is a fast configuration for CI: 8 threads, simdev.
func testEnv() Env {
	e := DefaultEnv()
	e.Threads = 8
	return e
}

func TestEnvValidation(t *testing.T) {
	bad := []Env{
		{Threads: 0, SigSlots: 1},
		{Threads: 1, SigSlots: 0},
	}
	for i, e := range bad {
		if err := e.validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, e)
		}
	}
	if err := DefaultEnv().validate(); err != nil {
		t.Fatalf("default env invalid: %v", err)
	}
}

// TestRunChecksEnv: Experiment.Run is where an Env enters the package, so
// every entry of the table refuses an invalid one with validate's error, and
// before any workload runs: no counter of the run's probes moves.
func TestRunChecksEnv(t *testing.T) {
	for _, bad := range []Env{{Threads: 0, SigSlots: 1}, {Threads: 1, SigSlots: 0}} {
		want := bad.validate()
		for _, e := range Experiments {
			reg := obs.NewRegistry()
			bad.Probes = obs.DefaultProbes(reg)
			r, err := e.Run(bad)
			if err == nil || err.Error() != want.Error() || r != nil {
				t.Errorf("%s with %+v: got (%v, %v), want validate's %q", e.ID, bad, r, err, want)
			}
			for name, n := range reg.Snapshot().Counters {
				if n != 0 {
					t.Errorf("%s with %+v: %s = %d, a workload ran", e.ID, bad, name, n)
				}
			}
		}
	}
}

// TestExperimentsReportToProbes: with Env.Probes set, every experiment that
// runs a detector in-thread adds its dependences to detect_events_total.
func TestExperimentsReportToProbes(t *testing.T) {
	runs := []struct {
		id  string
		run func(Env) error
	}{
		{"fpr", func(env Env) error { _, err := FPRSweep(env, splash.SimDev, []uint64{4096}); return err }},
		{"hash", func(env Env) error { _, err := HashAblation(env, splash.SimDev, 0); return err }},
		{"queue", func(env Env) error { _, err := Queue(env, "radix", splash.SimDev); return err }},
		{"fig2", func(env Env) error { _, err := Fig2(env); return err }},
		{"sampling", func(env Env) error { _, err := SamplingAblation(env, "lu_ncb", splash.SimDev); return err }},
		{"throughput", func(env Env) error { _, err := Throughput(env, "ocean_cp", splash.SimDev); return err }},
	}
	for _, r := range runs {
		reg := obs.NewRegistry()
		env := testEnv()
		env.Probes = obs.DefaultProbes(reg)
		if err := r.run(env); err != nil {
			t.Fatalf("%s: %v", r.id, err)
		}
		if n := reg.Snapshot().Counters["detect_events_total"]; n == 0 {
			t.Errorf("%s: detect_events_total = 0 with Env.Probes set", r.id)
		}
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	res, err := Fig4(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Min <= 0 || res.Max <= res.Min {
		t.Fatalf("degenerate range [%v,%v]", res.Min, res.Max)
	}
	// The paper's qualitative claim: slowdown depends on communication
	// behaviour. Data-movement kernels must exceed compute-dense apps.
	by := map[string]float64{}
	for _, r := range res.Rows {
		by[r.App] = r.Slowdown
	}
	if by["radix"] <= by["raytrace"] {
		t.Errorf("radix (%v) should exceed raytrace (%v)", by["radix"], by["raytrace"])
	}
	if by["lu_ncb"] <= by["water_spat"] {
		t.Errorf("lu_ncb (%v) should exceed water_spat (%v)", by["lu_ncb"], by["water_spat"])
	}
	if !strings.Contains(res.Render(), "radix") {
		t.Error("render missing app names")
	}
}

func TestFig5MemoryShape(t *testing.T) {
	env := testEnv()
	res, err := Fig5(env, splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// DiscoPoP's measured footprint is bounded by its configuration,
		// not the app.
		if r.DiscoPoP > r.DiscoPoPEq2+8*env.SigSlots {
			t.Errorf("%s: DiscoPoP %d exceeds Eq.2 bound %d", r.App, r.DiscoPoP, r.DiscoPoPEq2)
		}
		// Shadow tools are ordered by shadow scale.
		if !(r.Memcheck < r.Helgrind && r.Helgrind < r.HelgrindPlus) {
			t.Errorf("%s: shadow ordering violated: %d %d %d", r.App, r.Memcheck, r.Helgrind, r.HelgrindPlus)
		}
	}
	if !strings.Contains(res.Render(), "Helgrind") {
		t.Error("render incomplete")
	}
}

func TestFig5GrowthContrast(t *testing.T) {
	// The headline: from simdev to simlarge the shadow tools' and IPM's
	// memory grows, DiscoPoP's stays fixed. Check on one app for speed.
	env := testEnv()
	small, err := memoryOne(env, "radix", splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	large, err := memoryOne(env, "radix", splash.SimLarge)
	if err != nil {
		t.Fatal(err)
	}
	if large.IPM <= small.IPM {
		t.Error("IPM memory did not grow with input size")
	}
	if large.Memcheck <= small.Memcheck {
		t.Error("shadow memory did not grow with input size")
	}
	// DiscoPoP: fixed configuration bound; actual footprint must not exceed
	// it regardless of input size.
	bound := large.DiscoPoPEq2 + 8*env.SigSlots
	if large.DiscoPoP > bound {
		t.Errorf("DiscoPoP footprint %d exceeded fixed bound %d at simlarge", large.DiscoPoP, bound)
	}
}

func TestFPRSweepMonotonic(t *testing.T) {
	env := testEnv()
	res, err := FPRSweep(env, splash.SimDev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slots) != 4 {
		t.Fatalf("slots = %v", res.Slots)
	}
	// Averages must fall monotonically with slot count (the paper's
	// 85.8 -> 22.0 -> 8.4 -> 2.1 shape).
	prev := 2.0
	for _, n := range res.Slots {
		avg := res.Averages[n]
		if avg >= prev {
			t.Fatalf("FPR not decreasing: %v at %d (prev %v)", avg, n, prev)
		}
		prev = avg
	}
	first, last := res.Averages[res.Slots[0]], res.Averages[res.Slots[len(res.Slots)-1]]
	if first < 0.4 {
		t.Errorf("smallest signature FPR %v suspiciously low; paper's is 85.8%%", first)
	}
	if last > 0.1 {
		t.Errorf("largest signature FPR %v too high; paper's is 2.1%%", last)
	}
	if !strings.Contains(res.Render(), "AVERAGE") {
		t.Error("render incomplete")
	}
}

func TestFig6LuNested(t *testing.T) {
	res, err := Fig6(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"daxpy", "bmod", "TouchA", "barrier", "lu"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 6 output missing %q", want)
		}
	}
	if len(res.Hotspots) == 0 {
		t.Fatal("no hotspots")
	}
}

func TestFig7WaterNested(t *testing.T) {
	res, err := Fig7(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"INTERF", "POTENG", "MDMAIN"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 7 output missing %q", want)
		}
	}
}

func TestFig8LoadShapes(t *testing.T) {
	res, err := Fig8(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byApp := map[string]LoadRow{}
	for _, r := range res.Rows {
		byApp[r.App] = r
	}
	// radix: half the threads active in the pairwise hotspot (Fig. 8a).
	if got := byApp["radix"].Summary.Active; got != 4 {
		t.Errorf("radix active threads = %d, want 4 of 8", got)
	}
	// radiosity: all threads active and balanced (Fig. 8c).
	rad := byApp["radiosity"].Summary
	if rad.Active != 8 {
		t.Errorf("radiosity active = %d, want 8", rad.Active)
	}
	if rad.Balance > 2 {
		t.Errorf("radiosity balance index %v too skewed", rad.Balance)
	}
	// raytrace: all-or-most active but skewed (Fig. 8b).
	ray := byApp["raytrace"].Summary
	if ray.CV < rad.CV {
		t.Errorf("raytrace CV (%v) should exceed radiosity's (%v)", ray.CV, rad.CV)
	}
	if !strings.Contains(res.Render(), "radix") {
		t.Error("render incomplete")
	}
}

func TestTable1Measured(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Table1(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.MeasuredSlowdownAvg <= 1 {
		t.Errorf("measured slowdown %v", res.MeasuredSlowdownAvg)
	}
	if res.MeasuredSigMemBytes == 0 {
		t.Error("no sig mem")
	}
	if res.MeasuredFPRLargeSig > 0.2 {
		t.Errorf("large-signature FPR %v too high", res.MeasuredFPRLargeSig)
	}
	if !strings.Contains(res.Render(), "DiscoPoP") {
		t.Error("render incomplete")
	}
}

func TestPatternsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Patterns(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if res.KNNCleanAccuracy < 0.97 {
		t.Errorf("kNN clean accuracy %.3f < 0.97 (paper's bar)", res.KNNCleanAccuracy)
	}
	if res.KNNNoisyAccuracy < res.RuleNoisyAccuracy {
		t.Errorf("learning (%.3f) did not beat rules (%.3f) under signature noise",
			res.KNNNoisyAccuracy, res.RuleNoisyAccuracy)
	}
	if len(res.WorkloadClasses) == 0 {
		t.Fatal("no workload classifications")
	}
	if !strings.Contains(res.Render(), "kNN") {
		t.Error("render incomplete")
	}
}
