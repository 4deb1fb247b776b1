package commprof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func profileWithTelemetry(t *testing.T, tel *Telemetry) *Report {
	t.Helper()
	rep, err := Profile(Options{Workload: "fft", Threads: 8, Telemetry: tel})
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	return rep
}

func TestTelemetryReportAttached(t *testing.T) {
	tel := NewTelemetry()
	rep := profileWithTelemetry(t, tel)
	if rep.Telemetry == nil {
		t.Fatal("Report.Telemetry is nil despite Options.Telemetry")
	}
	tr := rep.Telemetry
	if tr.Counters["detect_events_total"] == 0 {
		t.Errorf("detect_events_total = 0; counters: %v", tr.Counters)
	}
	// Reader sets are exact masks: there is no bloom filter to count or fill,
	// and slot use shows in the occupancy gauge instead.
	if _, ok := tr.Counters["sig_filter_allocs_total"]; ok {
		t.Error("sig_filter_allocs_total is exported; the mask arena has no filters")
	}
	for _, gone := range []string{"sig_fill_ratio", "sig_bloom_fill_ratio"} {
		if _, ok := tr.Gauges[gone]; ok {
			t.Errorf("%s is exported; the mask arena has nothing to fill", gone)
		}
	}
	if tr.Counters["sig_reader_resets_total"] == 0 {
		t.Error("sig_reader_resets_total = 0: no write cleared a reader mask?")
	}
	if tr.Counters["exec_quantum_switches_total"] == 0 {
		t.Error("exec_quantum_switches_total = 0 on deterministic run")
	}
	if tr.Gauges["exec_logical_clock"] <= 0 {
		t.Errorf("exec_logical_clock = %v", tr.Gauges["exec_logical_clock"])
	}
	if occ := tr.Gauges["sig_slot_occupancy"]; occ <= 0 || occ > 1 {
		t.Errorf("sig_slot_occupancy = %v, want (0,1]", occ)
	}
	if tr.Gauges["comm_tree_nodes"] <= 0 {
		t.Errorf("comm_tree_nodes = %v", tr.Gauges["comm_tree_nodes"])
	}
	h, ok := tr.Histograms["detect_event_bytes"]
	if !ok || h.Count == 0 {
		t.Errorf("detect_event_bytes histogram empty: %+v", h)
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
		if sp.WallNanos < 0 {
			t.Errorf("span %s has negative wall time %d", sp.Name, sp.WallNanos)
		}
	}
	for _, want := range []string{"workload-setup", "engine-run", "tree-build", "report"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("span %q missing; got %v", want, names)
		}
	}
	// The engine-run span must cover logical time: its end clock equals the
	// run's final clock and exceeds its start.
	for _, sp := range tr.Spans {
		if sp.Name == "engine-run" && sp.EndClock <= sp.StartClock {
			t.Errorf("engine-run span clocks [%d,%d] did not advance", sp.StartClock, sp.EndClock)
		}
	}
}

func TestTelemetryNilIsNoop(t *testing.T) {
	var tel *Telemetry
	if err := tel.WriteProm(io.Discard); err != nil {
		t.Errorf("nil WriteProm: %v", err)
	}
	if err := tel.WriteJSON(io.Discard); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
	if err := tel.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if got := tel.Progress(); got.Accesses != 0 || got.Phase != "" || got.PerThread != nil {
		t.Errorf("nil Progress = %+v", got)
	}
	if _, err := tel.Serve(":0", false); err == nil {
		t.Error("nil Serve should error")
	}
	// A run without telemetry must still work and leave Report.Telemetry nil.
	rep, err := Profile(Options{Workload: "fft", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry != nil {
		t.Error("Report.Telemetry set without Options.Telemetry")
	}
}

func TestTelemetryProgressSnapshot(t *testing.T) {
	tel := NewTelemetry()
	rep := profileWithTelemetry(t, tel)
	p := tel.Progress()
	if p.Accesses != rep.Accesses {
		t.Errorf("Progress.Accesses = %d, report says %d", p.Accesses, rep.Accesses)
	}
	if p.Dependencies != rep.Dependencies {
		t.Errorf("Progress.Dependencies = %d, report says %d", p.Dependencies, rep.Dependencies)
	}
	if p.Clock == 0 {
		t.Error("Progress.Clock = 0 after a run")
	}
	if len(p.PerThread) != 8 {
		t.Fatalf("PerThread has %d entries, want 8", len(p.PerThread))
	}
	var sum uint64
	for _, v := range p.PerThread {
		sum += v
	}
	if sum != rep.Accesses {
		t.Errorf("per-thread accesses sum to %d, report says %d", sum, rep.Accesses)
	}
	if p.SigOccupancy <= 0 || p.SigOccupancy > 1 {
		t.Errorf("signature occupancy = %v, want in (0,1]", p.SigOccupancy)
	}
	if p.Phase != "" {
		t.Errorf("Phase = %q after run completed, want idle", p.Phase)
	}
}

func TestTelemetryPromExport(t *testing.T) {
	tel := NewTelemetry()
	profileWithTelemetry(t, tel)
	var buf bytes.Buffer
	if err := tel.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE detect_events_total counter",
		"# TYPE sig_slot_occupancy gauge",
		"# TYPE detect_event_bytes histogram",
		`detect_event_bytes_bucket{le="+Inf"}`,
		"detect_event_bytes_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom export missing %q", want)
		}
	}
	buf.Reset()
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
}

func TestTelemetryServeLive(t *testing.T) {
	tel := NewTelemetry()
	addr, err := tel.Serve("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if _, err := tel.Serve("127.0.0.1:0", false); err == nil {
		t.Error("second Serve should error while the first is running")
	}
	profileWithTelemetry(t, tel)

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "detect_events_total") {
		t.Errorf("/metrics missing counters:\n%s", out)
	}
	var progress struct {
		Snapshot ProgressSnapshot `json:"snapshot"`
	}
	if err := json.Unmarshal([]byte(get("/progress")), &progress); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if progress.Snapshot.Accesses == 0 {
		t.Error("/progress snapshot has zero accesses after a run")
	}
	var metricsJSON map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &metricsJSON); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}
	if err := tel.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tel.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// After Close a fresh Serve must be possible.
	if _, err := tel.Serve("127.0.0.1:0", false); err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	tel.Close()
}

func TestTelemetryReuseAcrossRuns(t *testing.T) {
	tel := NewTelemetry()
	first := profileWithTelemetry(t, tel)
	second := profileWithTelemetry(t, tel)
	f := first.Telemetry.Counters["detect_events_total"]
	s := second.Telemetry.Counters["detect_events_total"]
	if s != 2*f {
		t.Errorf("counters should accumulate across runs: first %d, second %d", f, s)
	}
	if len(second.Telemetry.Spans) != 2*len(first.Telemetry.Spans) {
		t.Errorf("spans should accumulate: first %d, second %d",
			len(first.Telemetry.Spans), len(second.Telemetry.Spans))
	}
}

func TestTelemetryWithRunAndMiniPar(t *testing.T) {
	tel := NewTelemetry()
	regions := []Region{{Name: "main", Parent: -1}, {Name: "loop", Parent: 0, Loop: true}}
	rep, err := Run(4, regions, func(th *Thread) {
		th.InRegion(1, func() {
			if th.ID() == 0 {
				th.Write(64, 8)
			}
			th.Barrier()
			if th.ID() != 0 {
				th.Read(64, 8)
			}
		})
	}, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry == nil || rep.Telemetry.Counters["detect_events_total"] == 0 {
		t.Fatalf("Run telemetry not wired: %+v", rep.Telemetry)
	}

	tel2 := NewTelemetry()
	src := `
array A[64];
func main() {
  parfor i = 0..64 { A[i] = i; }
  barrier;
  if tid == 0 { out A[0]; }
}`
	mrep, _, err := ProfileMiniPar(src, 4, nil, Options{Telemetry: tel2})
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Telemetry == nil {
		t.Fatal("ProfileMiniPar telemetry not wired")
	}
}

// TestTelemetryOneWiring pins that there is one telemetry wiring: in-thread
// and sharded runs expose the same gauge and /progress surface — sharded runs
// have the signature-saturation gauges the in-thread wiring used to own,
// in-thread runs the drop gauge the sharded one did, both the sampling gate's
// skipped reads — and differ only in the per-shard depth rows.
func TestTelemetryOneWiring(t *testing.T) {
	for _, shards := range []int{0, 3} {
		tel := NewTelemetry()
		rep, err := Profile(Options{
			Workload: "fft", Threads: 8, AnalysisShards: shards,
			SignatureSlots: 1 << 14, // small enough that occupancy is far above 0
			SamplePeriod:   4, Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := rep.Telemetry.Gauges
		for _, name := range []string{
			"detect_accesses_processed", "detect_comm_bytes", "detect_accesses_per_sec",
			"sig_slot_occupancy", "sig_footprint_bytes",
			"detect_sampler_skipped_reads", "exec_logical_clock",
		} {
			if _, ok := g[name]; !ok {
				t.Errorf("K=%d: gauge %s not bound", shards, name)
			}
		}
		if occ := g["sig_slot_occupancy"]; occ <= 0 || occ > 1 {
			t.Errorf("K=%d: sig_slot_occupancy = %v, want (0,1]", shards, occ)
		}
		snap := tel.Progress()
		if snap.SigOccupancy <= 0 || snap.SigOccupancy > 1 {
			t.Errorf("K=%d: progress signature occupancy %v", shards, snap.SigOccupancy)
		}
		if snap.SkippedReads == 0 || float64(snap.SkippedReads) != g["detect_sampler_skipped_reads"] {
			t.Errorf("K=%d: skipped reads: progress %d, gauge %v", shards, snap.SkippedReads, g["detect_sampler_skipped_reads"])
		}
		if snap.Accesses+snap.SkippedReads != rep.Accesses {
			t.Errorf("K=%d: analysed %d + skipped %d != issued %d", shards, snap.Accesses, snap.SkippedReads, rep.Accesses)
		}
		if len(snap.ShardDepths) != shards {
			t.Errorf("K=%d: %d shard depth rows", shards, len(snap.ShardDepths))
		}
	}
}

// TestReplayOverheadCountsEachBatchOnce pins where replay's analyser time is
// booked: in-thread the batch loop is the detector (BatchService, no queue
// time at all), sharded it is staging and queue wait (Producer) while the
// workers book their own BatchService — never both for the same nanosecond.
func TestReplayOverheadCountsEachBatchOnce(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		tel := NewTelemetry()
		rep, err := Replay(bytes.NewReader(buf.Bytes()), 8, Options{AnalysisShards: shards, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		ov := rep.Overhead
		if ov == nil || ov.DecodeNanos == 0 || ov.SignatureNanos == 0 {
			t.Fatalf("K=%d: overhead %+v", shards, ov)
		}
		if (ov.QueueNanos > 0) != (shards > 0) {
			t.Errorf("K=%d: QueueNanos = %d", shards, ov.QueueNanos)
		}
		h := rep.Telemetry.Histograms
		if h["stage_batch_service_nanos"].Count == 0 {
			t.Errorf("K=%d: no batch-service observations", shards)
		}
		if got := h["stage_producer_nanos"].Count; (got > 0) != (shards > 0) {
			t.Errorf("K=%d: %d producer-stage observations", shards, got)
		}
	}
}
