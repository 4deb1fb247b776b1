package commprof

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"commprof/internal/detect"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// TestProfileAccuracyDisabledByDefault pins the zero-value contract: no
// accuracy knobs, no Report.Accuracy section.
func TestProfileAccuracyDisabledByDefault(t *testing.T) {
	rep, err := Profile(Options{Workload: "fft", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy != nil {
		t.Fatalf("Report.Accuracy = %+v without opting in", rep.Accuracy)
	}
	if strings.Contains(rep.Summary(), "accuracy monitor") {
		t.Error("summary mentions the accuracy monitor on an unmonitored run")
	}
}

// TestRecordAccuracyMatchesOfflineExactDiff is the facade-level ground-truth
// acceptance check: Record a run with the monitor at full sampling, then
// replay the recorded trace through the offline lockstep methodology (a
// bounded and an exact detector side by side, the §V-A3 exact diff) and
// require the identical FPR — same counts, not approximately.
func TestRecordAccuracyMatchesOfflineExactDiff(t *testing.T) {
	const threads, slots = 8, 256
	opts := Options{
		Workload: "fft", Threads: threads, InputSize: "simsmall",
		SignatureSlots: slots, AccuracyTargetFPR: 0.05, AccuracySampleBits: 0,
	}
	var buf bytes.Buffer
	rep, err := Record(opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	acc := rep.Accuracy
	if acc == nil {
		t.Fatal("Report.Accuracy nil on a monitored Record run")
	}

	// Offline reference over the recorded stream.
	dec, err := trace.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	asym, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	dA, err := detect.New(detect.Options{Threads: threads, Backend: asym, Table: dec.Table()})
	if err != nil {
		t.Fatal(err)
	}
	dP, err := detect.New(detect.Options{Threads: threads, Backend: sig.NewPerfect(threads), Table: dec.Table()})
	if err != nil {
		t.Fatal(err)
	}
	var sigEvents, falsePos uint64
	if err := dec.ForEach(func(a trace.Access) error {
		evA, okA := dA.Process(a)
		evP, okP := dP.Process(a)
		if okA {
			sigEvents++
			if !okP || evA.Writer != evP.Writer {
				falsePos++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sigEvents == 0 {
		t.Fatal("offline reference saw no signature events")
	}
	if acc.SigEvents != sigEvents || acc.FalsePositives != falsePos {
		t.Errorf("online %d events / %d fp, offline exact diff %d / %d",
			acc.SigEvents, acc.FalsePositives, sigEvents, falsePos)
	}
	if want := float64(falsePos) / float64(sigEvents); acc.EstimatedFPR != want {
		t.Errorf("EstimatedFPR %v, offline %v", acc.EstimatedFPR, want)
	}
}

// TestProfileAccuracyReport exercises the serial Profile path end to end and
// checks the report section's internal consistency plus the summary line.
func TestProfileAccuracyReport(t *testing.T) {
	rep, err := Profile(Options{
		Workload: "radix", Threads: 8, SignatureSlots: 512,
		AccuracyTargetFPR: 0.02, AccuracySampleBits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := rep.Accuracy
	if acc == nil {
		t.Fatal("Report.Accuracy nil")
	}
	if acc.SampleBits != 1 || acc.SampleFraction != 0.5 || acc.TargetFPR != 0.02 {
		t.Errorf("config echo wrong: %+v", acc)
	}
	if acc.SigEvents == 0 || acc.SampledAccesses == 0 || acc.SampledGranules == 0 {
		t.Fatalf("monitored run saw nothing: %+v", acc)
	}
	if acc.Confirmed+acc.FalsePositives != acc.SigEvents {
		t.Errorf("verdicts do not sum: %+v", acc)
	}
	if acc.EstimatedFPR < acc.FPRLow || acc.EstimatedFPR > acc.FPRHigh {
		t.Errorf("CI does not bracket the point estimate: %+v", acc)
	}
	if acc.CurrentSlots != 512 {
		t.Errorf("CurrentSlots = %d, want 512", acc.CurrentSlots)
	}
	// 512 slots against radix is deeply saturated: the advisor must ask for
	// more and the alarm must have latched.
	if acc.RecommendedSlots <= acc.CurrentSlots {
		t.Errorf("saturated run not resized: %+v", acc)
	}
	if acc.RecommendedBytes == 0 || acc.ShadowBytes == 0 {
		t.Errorf("memory pricing missing: %+v", acc)
	}
	// The alarm comes from the slot-collision FPR.
	if !strings.Contains(acc.Alarm, "estimated signature FPR") {
		t.Errorf("saturated run did not alarm on its FPR: %q", acc.Alarm)
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "accuracy monitor: 1/2 of granules shadowed") {
		t.Errorf("summary missing accuracy line:\n%s", sum)
	}
	if !strings.Contains(sum, "ACCURACY ALARM:") {
		t.Errorf("summary missing alarm line:\n%s", sum)
	}
}

// TestFullReaderMasksDoNotAlarm is the all-to-all regression for the mask
// arena: every address is read by all 32 threads, so every live reader mask
// has all its bits set. That is exact state, not saturation — the paper's
// bloom filters sit at fill ≈ 0.50 under the same pattern — so the report
// must carry no alarm, on the serial and the sharded path.
func TestFullReaderMasksDoNotAlarm(t *testing.T) {
	const threads, addrs = 32, 512
	var accesses []Access
	now := uint64(0)
	for a := 0; a < addrs; a++ {
		now++
		accesses = append(accesses, Access{
			Kind: WriteAccess, Addr: uint64(a) * 8, Size: 8, Thread: int32(a % threads), Region: -1, Time: now,
		})
	}
	for tid := 0; tid < threads; tid++ {
		for a := 0; a < addrs; a++ {
			now++
			accesses = append(accesses, Access{
				Kind: ReadAccess, Addr: uint64(a) * 8, Size: 8, Thread: int32(tid), Region: -1, Time: now,
			})
		}
	}
	opts := Options{SignatureSlots: 1 << 16, AccuracyTargetFPR: 0.05}
	for name, run := range map[string]func() (*Report, error){
		"serial": func() (*Report, error) { return ProfileTrace(accesses, nil, threads, opts) },
		"sharded": func() (*Report, error) {
			o := opts
			o.AnalysisShards = 2
			return ProfileTrace(accesses, nil, threads, o)
		},
	} {
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acc := rep.Accuracy
		if acc == nil {
			t.Fatalf("%s: Report.Accuracy nil on a monitored run", name)
		}
		// Each address communicates to the 31 threads that did not write it,
		// less the few a slot collision hides.
		if want := uint64(addrs * (threads - 1)); rep.Dependencies < want*9/10 {
			t.Errorf("%s: %d dependencies, want about %d: reader sets not filled", name, rep.Dependencies, want)
		}
		if acc.Alarm != "" {
			t.Errorf("%s: full reader masks raised an alarm: %s", name, acc.Alarm)
		}
	}
}

// TestAdvisorPricesTheRunsSignature pins the advisor to the memory the run
// holds: on every entry point, serial and sharded, the current price is
// Report.SignatureBytes, and a recommended size is priced at the same bytes
// per slot.
func TestAdvisorPricesTheRunsSignature(t *testing.T) {
	var recorded bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &recorded); err != nil {
		t.Fatal(err)
	}
	accesses := []Access{
		{Kind: WriteAccess, Addr: 8, Size: 8, Thread: 0, Region: -1, Time: 1},
		{Kind: ReadAccess, Addr: 8, Size: 8, Thread: 1, Region: -1, Time: 2},
	}
	for _, shards := range []int{0, 3} {
		for _, slots := range []uint64{512, 1 << 20} {
			opts := Options{SignatureSlots: slots, AnalysisShards: shards, AccuracyTargetFPR: 0.05}
			for name, run := range map[string]func(Options) (*Report, error){
				"Profile": func(o Options) (*Report, error) {
					o.Workload, o.Threads = "radix", 8
					return Profile(o)
				},
				"Record": func(o Options) (*Report, error) {
					o.Workload, o.Threads = "fft", 8
					return Record(o, io.Discard)
				},
				"Replay": func(o Options) (*Report, error) { return Replay(bytes.NewReader(recorded.Bytes()), 8, o) },
				"ProfileTrace": func(o Options) (*Report, error) {
					return ProfileTrace(accesses, nil, 2, o)
				},
				"Run": func(o Options) (*Report, error) {
					return Run(4, nil, func(t *Thread) {
						t.Write(uint64(t.ID())*64, 8)
						t.Barrier()
						t.Read(uint64((t.ID()+1)%4)*64, 8)
					}, o)
				},
			} {
				rep, err := run(opts)
				if err != nil {
					t.Fatalf("%s K=%d slots=%d: %v", name, shards, slots, err)
				}
				acc := rep.Accuracy
				want := uint64(math.Ceil(float64(rep.SignatureBytes) / float64(acc.CurrentSlots) * float64(acc.RecommendedSlots)))
				if acc.CurrentSlots != slots || acc.RecommendedBytes != want {
					t.Errorf("%s K=%d slots=%d: %d slots at %d B recommended for a %d-byte signature of %d slots, want %d B",
						name, shards, slots, acc.RecommendedSlots, acc.RecommendedBytes, rep.SignatureBytes, acc.CurrentSlots, want)
				}
				if acc.RecommendedSlots == acc.CurrentSlots && acc.RecommendedBytes != rep.SignatureBytes {
					t.Errorf("%s K=%d slots=%d: unchanged size priced at %d B, the run holds %d B",
						name, shards, slots, acc.RecommendedBytes, rep.SignatureBytes)
				}
			}
		}
	}
}

// TestProfileShardedAccuracy exercises the pipeline path: per-shard monitors
// merged into the same report section, and the telemetry gauges bound to the
// merged state.
func TestProfileShardedAccuracy(t *testing.T) {
	tel := NewTelemetry()
	rep, err := Profile(Options{
		Workload: "fft", Threads: 8, SignatureSlots: 512,
		AnalysisShards:    4,
		AccuracyTargetFPR: 0.05, AccuracySampleBits: 0,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := rep.Accuracy
	if acc == nil {
		t.Fatal("Report.Accuracy nil on sharded run")
	}
	if acc.SigEvents == 0 || acc.Confirmed+acc.FalsePositives != acc.SigEvents {
		t.Errorf("merged verdicts inconsistent: %+v", acc)
	}
	if rep.Telemetry == nil {
		t.Fatal("Report.Telemetry nil")
	}
	if _, ok := rep.Telemetry.Gauges["accuracy_estimated_fpr"]; !ok {
		t.Errorf("accuracy_estimated_fpr gauge missing: %v", rep.Telemetry.Gauges)
	}
	if _, ok := rep.Telemetry.Gauges["sig_slot_occupancy"]; !ok {
		t.Errorf("sig_slot_occupancy gauge missing: %v", rep.Telemetry.Gauges)
	}
	if rep.Telemetry.Counters["accuracy_sampled_total"] == 0 {
		t.Error("accuracy_sampled_total = 0 on a fully sampled run")
	}
	snap := tel.Progress()
	if snap.AccuracySampled == 0 {
		t.Errorf("progress snapshot missing accuracy fields: %+v", snap)
	}
}

// TestReplayAccuracy covers both offline replay analysers: serial and
// sharded replays of the same trace must agree on the monitor's merged
// counters (exact backends are not in play, but the production signature is
// configured identically and replay is deterministic; sharding only
// repartitions slots, so only the verdicts may differ — the sampled access
// counts must match exactly).
func TestReplayAccuracy(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	opts := Options{SignatureSlots: 4096, AccuracyTargetFPR: 0.05, AccuracySampleBits: 0}
	serial, err := Replay(bytes.NewReader(raw), 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded := opts
	sharded.AnalysisShards = 2
	par, err := Replay(bytes.NewReader(raw), 8, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Accuracy == nil || par.Accuracy == nil {
		t.Fatalf("Replay accuracy missing: serial=%v sharded=%v", serial.Accuracy, par.Accuracy)
	}
	if serial.Accuracy.SampledAccesses != par.Accuracy.SampledAccesses ||
		serial.Accuracy.SampledGranules != par.Accuracy.SampledGranules {
		t.Errorf("sampled population diverged: serial %+v, sharded %+v", serial.Accuracy, par.Accuracy)
	}
	if serial.Accuracy.SigEvents == 0 {
		t.Error("serial replay monitor saw no events")
	}
}

// TestReplayShardedTelemetryBound is the regression test for the unbound
// sharded-replay gauges: Replay with AnalysisShards plus Telemetry used to
// skip telemetry wiring entirely, leaving Report.Telemetry nil and the
// redundancy_hit_rate gauge absent from scrapes. The gauges must now bind to
// the pipeline engine's merged per-shard state, which stays readable after
// Close.
func TestReplayShardedTelemetryBound(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "ocean_cp", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	rep, err := Replay(&buf, 8, Options{
		AnalysisShards:      2,
		RedundancyCacheBits: 12,
		Telemetry:           tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry == nil {
		t.Fatal("Report.Telemetry nil on sharded replay with Options.Telemetry set")
	}
	hit, ok := rep.Telemetry.Gauges["redundancy_hit_rate"]
	if !ok {
		t.Fatalf("redundancy_hit_rate gauge missing: %v", rep.Telemetry.Gauges)
	}
	if rep.Redundancy == nil || rep.Redundancy.Hits == 0 {
		t.Fatalf("test needs fast-path hits to be meaningful: %+v", rep.Redundancy)
	}
	if hit <= 0 {
		t.Errorf("redundancy_hit_rate = %v with %d hits", hit, rep.Redundancy.Hits)
	}
	for _, g := range []string{"pipeline_shard_0_depth", "pipeline_shard_1_depth"} {
		if _, ok := rep.Telemetry.Gauges[g]; !ok {
			t.Errorf("%s gauge missing: %v", g, rep.Telemetry.Gauges)
		}
	}
}

// TestAccuracyOptionValidation covers facade-level rejection of bad knobs.
func TestAccuracyOptionValidation(t *testing.T) {
	if _, err := Profile(Options{Workload: "fft", Threads: 4, AccuracyTargetFPR: 1.5}); err == nil {
		t.Error("TargetFPR 1.5 accepted")
	}
	if _, err := Profile(Options{Workload: "fft", Threads: 4, AccuracyTargetFPR: 0.05, AccuracySampleBits: 99}); err == nil {
		t.Error("SampleBits 99 accepted")
	}
	if _, err := Profile(Options{Workload: "fft", Threads: 4, AnalysisShards: 2, AccuracyTargetFPR: 1.5}); err == nil {
		t.Error("sharded path accepted TargetFPR 1.5")
	}
}
