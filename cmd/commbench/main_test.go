package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"commprof/internal/experiments"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestListExperiments: -listexp prints exactly the table's IDs, one a line
// in table order, so a deleted experiment (replay) is gone from it and -exp
// rejects it as unknown.
func TestListExperiments(t *testing.T) {
	code, out, _ := runCLI(t, "-listexp")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var want []string
	for _, e := range experiments.Experiments {
		want = append(want, e.ID)
	}
	if got := strings.Fields(out); !slices.Equal(got, want) {
		t.Errorf("-listexp printed %q, want the table's %q", got, want)
	}
	if code, _, errOut := runCLI(t, "-exp", "replay"); code != 2 || !strings.Contains(errOut, "unknown experiment replay") {
		t.Errorf("-exp replay: exit %d, err %q", code, errOut)
	}
}

func TestCoalesceExperiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "coalesce", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"fft", "stencil", "reduction", "uncoalesced", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("coalesce output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "false") {
		t.Errorf("a kernel's communication diverged under coalescing:\n%s", out)
	}
}

func TestEq2Experiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "eq2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "586.6 MB") || !strings.Contains(out, "≈580 MB") {
		t.Errorf("eq2 output wrong:\n%s", out)
	}
}

func TestFig8Experiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "fig8", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"radix", "raytrace", "radiosity", "thread load"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 output missing %q", want)
		}
	}
}

func TestSparseExperiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "sparse", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "ring-4096") || !strings.Contains(out, "winner") {
		t.Errorf("sparse output wrong:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errOut := runCLI(t, "-exp", "fig99")
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestMissingExperiment(t *testing.T) {
	code, _, errOut := runCLI(t)
	if code != 2 || !strings.Contains(errOut, "-exp is required") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "-nope"); code != 2 {
		t.Error("bad flag exit != 2")
	}
}

func TestFig2Experiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "fig2", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "BLACK") || !strings.Contains(out, "gray") {
		t.Errorf("fig2 output wrong:\n%s", out)
	}
}

func TestFig6Experiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "fig6", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"daxpy", "bmod", "Hotspot 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 output missing %q", want)
		}
	}
}

func TestQueueExperiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "queue", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "bursty") || !strings.Contains(out, "paced") {
		t.Errorf("queue output wrong:\n%s", out)
	}
}

func TestTelemetryFlag(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "fig8", "-threads", "8", "-telemetry")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"-- telemetry (Prometheus text format) --",
		"# TYPE detect_events_total counter",
		"exec_quantum_switches_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry dump missing %q:\n%s", want, out)
		}
	}
}

func TestTelemetryAddrFlag(t *testing.T) {
	code, _, errOut := runCLI(t, "-exp", "eq2", "-telemetry-addr", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "serving telemetry on http://127.0.0.1:") {
		t.Errorf("serving notice missing from stderr: %q", errOut)
	}
}

func TestPhasesExperiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "phases", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "phase 1") {
		t.Errorf("phases output wrong:\n%s", out)
	}
}

// TestTelemetryFlagsShared drives the telemetry table commbench shares with
// commprof: -timeline writes one span per experiment, -telemetry-dump writes
// Prometheus text, and -pprof needs -telemetry-addr.
func TestTelemetryFlagsShared(t *testing.T) {
	dir := t.TempDir()
	timeline, dump := filepath.Join(dir, "run.json"), filepath.Join(dir, "final.prom")
	code, _, errOut := runCLI(t, "-exp", "eq2", "-timeline", timeline, "-telemetry-dump", dump)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name, Ph string }
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("timeline is not a trace-event array: %v\n%s", err, data)
	}
	if !slices.Contains(events, struct{ Name, Ph string }{"exp:eq2", "X"}) {
		t.Errorf("timeline has no X event exp:eq2:\n%s", data)
	}
	data, err = os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# TYPE ") || !strings.Contains(string(data), "\ndetect_events_total 0\n") {
		t.Errorf("dump is not the Prometheus text:\n%s", data)
	}

	code, _, errOut = runCLI(t, "-exp", "eq2", "-pprof")
	if code != 2 || !strings.Contains(errOut, "-telemetry-addr") {
		t.Errorf("-pprof alone: exit %d, err %q", code, errOut)
	}
}
