package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite both goldens under testdata/ from this build")

// paperSignature are the experiments paper_signature.golden pins, whole and
// byte for byte; experiments.golden pins every other ID of the table.
var paperSignature = map[string]bool{"eq2": true, "fig2": true, "fig5a": true, "fpr": true, "hash": true}

const (
	paperSignatureGolden = "testdata/paper_signature.golden"
	experimentsGolden    = "testdata/experiments.golden"
)

// TestPaperSignatureGolden pins the deterministic signature experiments to
// what `commbench -exp eq2|fig2|fig5a|fpr|hash` printed before the profiler
// gained its exact reader masks: the reproductions run the paper's bloom
// signature (Env.newSignature), so no layout or slot-reduction change in
// internal/sig may move a byte of them.
func TestPaperSignatureGolden(t *testing.T) {
	checkGolden(t, paperSignatureGolden, func(id string) bool { return paperSignature[id] }, Result.Render)
}

// TestExperimentsGolden pins every other experiment of the table on the
// deterministic fields of its result: what `commbench -exp <id>` prints at
// its defaults, minus the wall-clock values (see pinned).
func TestExperimentsGolden(t *testing.T) {
	checkGolden(t, experimentsGolden, func(id string) bool { return !paperSignature[id] }, pinned)
}

// TestGoldensCoverTable fails when an experiment of the table is pinned by
// neither golden file.
func TestGoldensCoverTable(t *testing.T) {
	pinnedIDs := map[string]bool{}
	for _, path := range []string{paperSignatureGolden, experimentsGolden} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^==== (\S+) ====$`).FindAllSubmatch(data, -1) {
			pinnedIDs[string(m[1])] = true
		}
	}
	for i, e := range Experiments {
		if !pinnedIDs[e.ID] {
			t.Errorf("experiment %s is in neither golden (go test -run Golden -update adds it)", e.ID)
		}
		if i > 0 && Experiments[i-1].ID >= e.ID {
			t.Errorf("Experiments not sorted by ID at %s", e.ID)
		}
	}
}

// checkGolden runs the table's experiments that in selects at commbench's
// defaults and compares their sections, in table order, with the golden at
// path; -update rewrites it instead.
func checkGolden(t *testing.T, path string, in func(id string) bool, render func(Result) string) {
	env := DefaultEnv() // commbench's defaults: 32 threads, seed 42, 2^20 slots
	var got bytes.Buffer
	for _, e := range Experiments {
		if !in(e.ID) {
			continue
		}
		r, err := e.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&got, "==== %s ====\n%s\n", e.ID, render(r))
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments moved off %s at line %d (-update rewrites it only when the change is the point):\n got: %q\nwant: %q",
				path, i+1, g, w)
		}
	}
}

// pinned renders the deterministic fields of r. No wall-clock value enters a
// golden: not Fig. 4's InstrNs and Slowdown nor the averages built from them
// (Table I's measured slowdown), not sampling's WallNs and Speedup, not
// throughput's WallNs and MEventsPerS, not the phases' per-access costs. The
// result types that carry them are printed here, field by field; the others
// render as commbench prints them.
func pinned(r Result) string {
	var b strings.Builder
	switch r := r.(type) {
	case *Fig4Result:
		b.WriteString("Fig. 4 — operation counts and modeled native time (the slowdown is wall clock)\n")
		fmt.Fprintf(&b, "%-11s %10s %10s %14s\n", "app", "accesses", "work", "native ns")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-11s %10d %10d %14.1f\n", row.App, row.Accesses, row.WorkUnits, row.NativeNs)
		}
	case *Table1Result:
		b.WriteString("Table I — profiler comparison on the six Cruz properties\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%+v\n", row)
		}
		fmt.Fprintf(&b, "DiscoPoP fixed memory: %d B (Eq. 2)\n", r.MeasuredSigMemBytes)
		fmt.Fprintf(&b, "FPR at largest signature: %.1f%%\n", 100*r.MeasuredFPRLargeSig)
	case *SamplingResult:
		fmt.Fprintf(&b, "§VII sampling ablation — %s (read sampling, writes always analysed)\n", r.App)
		fmt.Fprintf(&b, "%8s %10s %12s\n", "rate", "fidelity", "volume est.")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "   1/%-3d %10.3f %11.2fx\n", row.Period, row.Fidelity, row.VolumeRatio)
		}
	case *ThroughputResult:
		fmt.Fprintf(&b, "profiler analysis throughput — %s stream (%d events)\n", r.App, r.Rows[0].Events)
		fmt.Fprintf(&b, "%-22s %12s %14s\n", "profiler", "analysed", "memory B")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-22s %12d %14d\n", row.Name, row.Analysed, row.MemoryBytes)
		}
	case *PhasesResult:
		cp := *r
		cp.BaselineNs, cp.WindowedNs = 0, 0 // Render leaves out the cost line
		return cp.Render()
	default:
		return r.Render()
	}
	return b.String()
}
