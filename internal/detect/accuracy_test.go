package detect

import (
	"fmt"
	"testing"

	"commprof/internal/accuracy"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

func newTestMonitor(t *testing.T, threads int, bits uint) *accuracy.Monitor {
	t.Helper()
	m, err := accuracy.New(accuracy.Options{
		Threads: threads, SampleBits: bits, TargetFPR: accuracy.DefaultTargetFPR,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAccuracyExactBackendAllConfirmed pins the pairing invariant: when the
// production backend is itself exact, the shadow must agree with every
// verdict — zero false positives, zero missed events, and every detected
// event in the sampled slice confirmed. Runs the full-sampling slice so the
// counters are exhaustive.
func TestAccuracyExactBackendAllConfirmed(t *testing.T) {
	const threads = 16
	for _, name := range splash.Names() {
		t.Run(name, func(t *testing.T) {
			stream, table := recordWorkloadStream(t, name, threads)
			mon := newTestMonitor(t, threads, 0)
			d, err := New(Options{
				Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
				Accuracy: mon,
			})
			if err != nil {
				t.Fatal(err)
			}
			d.ProcessBatch(stream)
			st := mon.Stats()
			if st.FalsePositives != 0 || st.MissedEvents != 0 {
				t.Errorf("exact backend disagreed with exact shadow: %+v", st)
			}
			if st.Confirmed != d.Stats().Detected {
				t.Errorf("confirmed %d != detected %d at full sampling", st.Confirmed, d.Stats().Detected)
			}
			if st.SampledAccesses != d.Stats().Processed {
				t.Errorf("sampled %d != processed %d at full sampling", st.SampledAccesses, d.Stats().Processed)
			}
		})
	}
}

// TestAccuracyMatchesOfflineLockstep checks the monitor against the offline
// methodology of internal/experiments.FPRSweep: a bounded asymmetric
// detector and an exact detector processed in lockstep, counting bounded
// events the exact run rejects or re-attributes. At full sampling the
// monitor's SigEvents/FalsePositives must equal the lockstep counts exactly.
func TestAccuracyMatchesOfflineLockstep(t *testing.T) {
	const threads = 16
	for _, slots := range []uint64{256, 4096} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			stream, table := recordWorkloadStream(t, "fft", threads)

			// Offline reference: two detectors in lockstep.
			asym, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			dA, err := New(Options{Threads: threads, Backend: asym, Table: table})
			if err != nil {
				t.Fatal(err)
			}
			dP, err := New(Options{Threads: threads, Backend: sig.NewPerfect(threads), Table: table})
			if err != nil {
				t.Fatal(err)
			}
			var sigEvents, falsePos uint64
			for _, a := range stream {
				evA, okA := dA.Process(a)
				evP, okP := dP.Process(a)
				if okA {
					sigEvents++
					if !okP || evA.Writer != evP.Writer {
						falsePos++
					}
				}
			}

			// Online monitor over the identical stream.
			asym2, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			mon := newTestMonitor(t, threads, 0)
			d, err := New(Options{Threads: threads, Backend: asym2, Table: table, Accuracy: mon})
			if err != nil {
				t.Fatal(err)
			}
			d.ProcessBatch(stream)

			st := mon.Stats()
			if st.SigEvents != sigEvents || st.FalsePositives != falsePos {
				t.Errorf("online %d events / %d false positives, offline lockstep %d / %d",
					st.SigEvents, st.FalsePositives, sigEvents, falsePos)
			}
		})
	}
}

// TestAccuracySampledSliceIsSubset checks that a thinner slice observes a
// strict subset of the full slice's accesses and that the verdict invariant
// (confirmed + falsePos = sigEvents) holds within the slice.
func TestAccuracySampledSliceIsSubset(t *testing.T) {
	const threads = 16
	stream, table := recordWorkloadStream(t, "radix", threads)
	run := func(bits uint) accuracy.Stats {
		asym, err := sig.NewAsymmetric(sig.Options{Slots: 512, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		mon := newTestMonitor(t, threads, bits)
		d, err := New(Options{Threads: threads, Backend: asym, Table: table, Accuracy: mon})
		if err != nil {
			t.Fatal(err)
		}
		d.ProcessBatch(stream)
		return mon.Stats()
	}
	full := run(0)
	thin := run(3)
	if thin.SampledAccesses == 0 {
		t.Fatal("1/8 slice sampled nothing on radix simdev")
	}
	if thin.SampledAccesses >= full.SampledAccesses {
		t.Errorf("1/8 slice (%d accesses) not smaller than full slice (%d)", thin.SampledAccesses, full.SampledAccesses)
	}
	for _, st := range []accuracy.Stats{full, thin} {
		if st.Confirmed+st.FalsePositives != st.SigEvents {
			t.Errorf("verdict invariant broken: %+v", st)
		}
	}
}

// TestAccuracyComposesWithRedundancy pins the fast-path interaction: an
// access the redundancy cache skips reaches neither the production backend
// nor the shadow, so the monitor's verdicts on an exact backend stay
// all-confirmed, and the shadow sees exactly the processed-minus-skipped
// accesses.
func TestAccuracyComposesWithRedundancy(t *testing.T) {
	const threads = 16
	stream, table := recordWorkloadStream(t, "ocean_cp", threads)
	mon := newTestMonitor(t, threads, 0)
	d, err := New(Options{
		Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
		RedundancyCacheBits: 12,
		Accuracy:            mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProcessBatch(stream)
	rst, ok := d.RedundancyStats()
	if !ok || rst.Hits == 0 {
		t.Fatalf("fast path inert on ocean_cp (stats %+v ok=%v); test needs skips to mean anything", rst, ok)
	}
	st := mon.Stats()
	if st.FalsePositives != 0 || st.MissedEvents != 0 {
		t.Errorf("redundancy skips desynchronized the shadow: %+v", st)
	}
	if want := d.Stats().Processed - rst.Hits; st.SampledAccesses != want {
		t.Errorf("shadow saw %d accesses, want processed-skipped = %d", st.SampledAccesses, want)
	}
	if st.Confirmed != d.Stats().Detected {
		t.Errorf("confirmed %d != detected %d with the fast path on", st.Confirmed, d.Stats().Detected)
	}
}

// TestAccuracyAccessor covers the detector's monitor plumbing: the monitor
// handed in through Options is the one the detector feeds, and a detector
// without one runs unmonitored.
func TestAccuracyAccessor(t *testing.T) {
	stream := []trace.Access{
		{Time: 0, Addr: 0x100, Size: 8, Thread: 0, Region: trace.NoRegion, Kind: trace.Write},
		{Time: 1, Addr: 0x100, Size: 8, Thread: 1, Region: trace.NoRegion, Kind: trace.Read},
	}
	d, err := New(Options{Threads: 2, Backend: sig.NewPerfect(2)})
	if err != nil {
		t.Fatal(err)
	}
	d.ProcessBatch(stream)
	if got := d.Stats().Detected; got != 1 {
		t.Fatalf("unmonitored detector found %d events, want 1", got)
	}
	mon := newTestMonitor(t, 2, 0)
	d2, err := New(Options{Threads: 2, Backend: sig.NewPerfect(2), Accuracy: mon})
	if err != nil {
		t.Fatal(err)
	}
	d2.ProcessBatch(stream)
	if st := mon.Stats(); st.SampledAccesses != 2 || st.Confirmed != 1 {
		t.Errorf("monitor saw %d accesses and confirmed %d events, want 2 and 1", st.SampledAccesses, st.Confirmed)
	}
}
