package pipeline

import (
	"testing"

	"commprof/internal/accuracy"
	"commprof/internal/detect"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// TestShardedAccuracyMergeMatchesSerial pins the merge-by-summation claim:
// shard routing and granule sampling slice the address space along
// independent hashes, so the sum of per-shard monitor counters must equal a
// serial monitor's counters over the same stream — exactly, because both
// run exact backends here and verdicts cannot depend on shard placement.
func TestShardedAccuracyMergeMatchesSerial(t *testing.T) {
	const threads = 8
	stream := synthetic(threads, 20, 64)

	for _, bits := range []uint{0, 2} {
		mon, err := accuracy.New(accuracy.Options{Threads: threads, SampleBits: bits, TargetFPR: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := detect.New(detect.Options{Threads: threads, Backend: sig.NewPerfect(threads), Accuracy: mon})
		if err != nil {
			t.Fatal(err)
		}
		ref.ProcessBatch(stream)
		want := mon.Stats()

		for _, shards := range []int{0, 1, 2, 4} {
			e, err := New(Options{
				Shards: shards, Threads: threads,
				NewBackend: PerfectFactory(threads),
				Accuracy:   &accuracy.Options{Threads: threads, SampleBits: bits, TargetFPR: 0.05},
			})
			if err != nil {
				t.Fatalf("bits=%d shards=%d: %v", bits, shards, err)
			}
			e.ProcessBatch(stream)
			e.Close()
			got, ok := e.AccuracyStats()
			if !ok {
				t.Fatalf("bits=%d shards=%d: AccuracyStats off", bits, shards)
			}
			if got != want {
				t.Errorf("bits=%d shards=%d: merged stats %+v, serial %+v", bits, shards, got, want)
			}
			est, ok := e.AccuracyEstimate()
			if !ok || est.SampleBits != bits || est.TargetFPR != 0.05 {
				t.Errorf("bits=%d shards=%d: estimate misconfigured: %+v ok=%v", bits, shards, est, ok)
			}
			if est.FalsePositives != 0 {
				t.Errorf("bits=%d shards=%d: exact backends produced false positives: %+v", bits, shards, est)
			}
		}
	}
}

// TestShardedAccuracyOffByDefault checks the disabled path returns ok=false
// everywhere and the alarm stays silent.
func TestShardedAccuracyOffByDefault(t *testing.T) {
	e, err := New(Options{Shards: 2, Threads: 4, NewBackend: PerfectFactory(4)})
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(synthetic(4, 2, 8))
	e.Close()
	if _, ok := e.AccuracyStats(); ok {
		t.Error("AccuracyStats reported a monitor on an unmonitored engine")
	}
	if _, ok := e.AccuracyEstimate(); ok {
		t.Error("AccuracyEstimate reported a monitor on an unmonitored engine")
	}
	e.EvaluateAccuracy() // must not panic or latch
	if msg, ok := e.AccuracyAlarm(); ok {
		t.Errorf("alarm latched on an unmonitored engine: %q", msg)
	}
	if e.AccuracyShadowBytes() != 0 {
		t.Error("shadow bytes non-zero on an unmonitored engine")
	}
}

// interleaved builds a stream where each address has its own writer thread
// and a distinct reader: under a saturated write signature, slot aliasing
// attributes reads to whichever address last hit the shared slot — a
// mis-attribution false positive the monitor must catch.
func interleaved(threads, addrs int) []trace.Access {
	var out []trace.Access
	var now uint64
	for a := 0; a < addrs; a++ {
		now++
		out = append(out, trace.Access{
			Time: now, Addr: uint64(a) * 8, Size: 8,
			Thread: int32(a % threads), Kind: trace.Write,
		})
	}
	for a := 0; a < addrs; a++ {
		now++
		out = append(out, trace.Access{
			Time: now, Addr: uint64(a) * 8, Size: 8,
			Thread: int32((a + 1) % threads), Kind: trace.Read,
		})
	}
	return out
}

// TestShardedAccuracyAlarm drives a saturated configuration (tiny asymmetric
// partitions against per-address writers) and checks the engine-level alarm
// latches via EvaluateAccuracy on the merged FPR estimate.
func TestShardedAccuracyAlarm(t *testing.T) {
	const threads = 8
	stream := interleaved(threads, 8192)
	e, err := New(Options{
		Shards: 2, Threads: threads,
		NewBackend: AsymmetricFactory(64, 2, threads, 0.001, nil),
		Accuracy:   &accuracy.Options{Threads: threads, SampleBits: 0, TargetFPR: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(stream)
	e.Close()
	est, ok := e.AccuracyEstimate()
	if !ok {
		t.Fatal("estimate off")
	}
	if est.SigEvents == 0 {
		t.Fatal("no signature events on a RAW-heavy stream")
	}
	e.EvaluateAccuracy()
	if _, ok := e.AccuracyAlarm(); !ok {
		t.Errorf("64-slot signature under %d events did not alarm (est %+v)", est.SigEvents, est)
	}
}
