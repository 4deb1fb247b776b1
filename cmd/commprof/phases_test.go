package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPhasesComposeWithShards is the CLI regression for the former hard
// error: -phases together with -shards must profile, render the pattern
// timeline, and never print the old incompatibility message.
func TestPhasesComposeWithShards(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "radix", "-threads", "8", "-shards", "2", "-phases", "5000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if strings.Contains(errOut, "PhaseWindow requires the serial analyser") {
		t.Fatalf("old incompatibility error resurfaced: %s", errOut)
	}
	for _, want := range []string{"phases:", "pattern timeline:", "sharded analysis: 2 shards"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// phaseMetricLine selects the exposition lines the windowed phase layer owns.
func phaseMetricLine(line string) bool {
	name := strings.TrimPrefix(line, "# TYPE ")
	return strings.HasPrefix(name, "phase_") ||
		strings.HasPrefix(name, "comm_current_pattern") ||
		strings.HasPrefix(name, "comm_pattern_windows_")
}

// TestPhaseTelemetryGolden pins the Prometheus exposition of the pattern
// gauges and window counters byte-for-byte: a recorded trace replayed
// offline through the sharded pipeline with -phases and -telemetry-dump is
// deterministic (single-producer replay arrives time-ordered per shard, so
// window closing — and therefore every final counter and gauge — is
// tick-independent). Regenerate with PHASES_GOLDEN_UPDATE=1 go test.
func TestPhaseTelemetryGolden(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fft.trace")
	if code, _, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-record", tracePath); code != 0 {
		t.Fatalf("record exit %d: %s", code, errOut)
	}
	dumpPath := filepath.Join(dir, "final.prom")
	code, _, errOut := runCLI(t, "-replay", tracePath, "-threads", "8",
		"-shards", "2", "-phases", "3000", "-telemetry-dump", dumpPath)
	if code != 0 {
		t.Fatalf("replay exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	names := parseProm(t, string(data))
	for _, want := range []string{
		"phase_windows_closed_total", "phase_transitions_total",
		"comm_current_pattern", "comm_current_pattern_confidence",
		"comm_pattern_windows_pipeline", "comm_pattern_windows_barrier",
		"comm_pattern_windows_master_worker", "comm_pattern_windows_linear_algebra",
		"comm_pattern_windows_structured_grid", "comm_pattern_windows_spectral",
		"comm_pattern_windows_n_body",
	} {
		if !names[want] {
			t.Errorf("dump missing metric %s", want)
		}
	}

	var got strings.Builder
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if phaseMetricLine(line) {
			got.WriteString(line)
			got.WriteByte('\n')
		}
	}
	goldenPath := filepath.Join("testdata", "phases_golden.prom")
	if os.Getenv("PHASES_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with PHASES_GOLDEN_UPDATE=1)", err)
	}
	if got.String() != string(golden) {
		t.Fatalf("phase exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got.String(), golden)
	}
}
