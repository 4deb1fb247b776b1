package detect

import (
	"testing"

	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

func overheadDetector(t testing.TB, ovh *obs.OverheadProbes) *Detector {
	t.Helper()
	backend, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 12, Threads: 4})
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	d, err := New(Options{
		Threads:             4,
		Backend:             backend,
		RedundancyCacheBits: 8,
		Overhead:            ovh,
	})
	if err != nil {
		t.Fatalf("detector: %v", err)
	}
	return d
}

// TestProcessDisabledPathZeroAlloc pins the requirement that the disabled
// observability path — nil probes, nil overhead split — adds zero
// allocations per access on the detector hot path.
func TestProcessDisabledPathZeroAlloc(t *testing.T) {
	d := overheadDetector(t, nil)
	var i uint64
	if n := testing.AllocsPerRun(2000, func() {
		i++
		kind := trace.Read
		if i%3 == 0 {
			kind = trace.Write
		}
		d.Process(trace.Access{
			Time: i, Addr: 0x1000 + (i%512)*8, Size: 8,
			Thread: int32(i % 4), Region: trace.NoRegion, Kind: kind,
		})
	}); n != 0 {
		t.Fatalf("disabled-path Process allocates %v per access, want 0", n)
	}
}

// TestProcessOverheadSplitAccumulates exercises the sampled redundancy/shadow
// timing: with Overhead probes wired and enough accesses to hit the 1/256
// sample, the redundancy bucket must accumulate scaled nanoseconds.
func TestProcessOverheadSplitAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	ovh := &obs.OverheadProbes{
		RedundancyNanos: reg.Counter("overhead_redundancy_nanos_total"),
		ShadowNanos:     reg.Counter("overhead_shadow_nanos_total"),
	}
	d := overheadDetector(t, ovh)
	for i := uint64(0); i < 1<<overheadSampleShift*64; i++ {
		kind := trace.Read
		if i%3 == 0 {
			kind = trace.Write
		}
		d.Process(trace.Access{
			Time: i, Addr: 0x1000 + (i%512)*8, Size: 8,
			Thread: int32(i % 4), Region: trace.NoRegion, Kind: kind,
		})
	}
	if ovh.RedundancyNanos.Value() == 0 {
		t.Errorf("sampled redundancy nanos stayed 0 after %d accesses", 1<<overheadSampleShift*64)
	}
}
