package commprof

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestReportsIndependentOfCoreCount pins that a report depends on the
// program and the options, never on how many cores the host lends the run:
// the scheduler hands the turn from thread to thread, so Profile, Record (and
// the Replay of its trace) and Run see one access order under GOMAXPROCS 1
// and 4 alike, in-thread and sharded, with the phase windows, the redundancy
// cache and the accuracy monitor on. Only the sections that hold
// timing-dependent peaks (Pipeline, Telemetry, Overhead) are left out of the
// comparison. The Run body is a single-writer scatter: thread 0 writes a
// block per consumer, a barrier separates production from consumption, and
// each other thread then reads its own block.
func TestReportsIndependentOfCoreCount(t *testing.T) {
	const (
		threads = 8
		k       = 64 // addresses per consumer thread
		size    = 8
	)
	regions := []Region{{Name: "main", Parent: -1}, {Name: "scatter", Parent: 0, Loop: true}}
	block := func(consumer uint64) uint64 { return 0x10000 + (consumer-1)*k*size }
	body := func(th *Thread) {
		th.InRegion(1, func() {
			if th.ID() == 0 {
				for c := uint64(1); c < threads; c++ {
					for i := uint64(0); i < k; i++ {
						th.Write(block(c)+i*size, size)
					}
				}
			}
			th.Barrier()
			if th.ID() != 0 {
				for i := uint64(0); i < k; i++ {
					th.Read(block(uint64(th.ID()))+i*size, size)
				}
			}
		})
	}

	// runs returns every entry point's report at one core count, keyed by
	// entry point and shard count.
	runs := func(procs int) map[string]*Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := map[string]*Report{}
		for _, shards := range []int{0, 2} {
			opts := Options{
				Workload: "fft", Threads: threads, AnalysisShards: shards,
				PhaseWindow: 2000, RedundancyCacheBits: 10, AccuracyTargetFPR: DefaultAccuracyTargetFPR,
			}
			add := func(name string, rep *Report, err error) {
				if err != nil {
					t.Fatalf("GOMAXPROCS %d, shards %d, %s: %v", procs, shards, name, err)
				}
				rep.Pipeline, rep.Telemetry, rep.Overhead = nil, nil, nil
				out[fmt.Sprintf("%s/shards=%d", name, shards)] = rep
			}
			rep, err := Profile(opts)
			add("Profile", rep, err)
			var buf bytes.Buffer
			rep, err = Record(opts, &buf)
			add("Record", rep, err)
			rep, err = Replay(&buf, 0, opts)
			add("Replay", rep, err)
			rep, err = Run(threads, regions, body, opts)
			add("Run", rep, err)
		}
		return out
	}

	one := runs(1)
	if rep := one["Run/shards=0"]; rep.Global.Total() != k*size*(threads-1) {
		t.Fatalf("scatter total = %d, want %d", rep.Global.Total(), k*size*(threads-1))
	}
	for name, rep := range one {
		if rep.PhaseTimeline == nil || rep.Redundancy == nil || rep.Accuracy == nil {
			t.Fatalf("%s: a layer's report section is missing: timeline %v, redundancy %v, accuracy %v",
				name, rep.PhaseTimeline != nil, rep.Redundancy != nil, rep.Accuracy != nil)
		}
	}
	for name, rep := range runs(4) {
		if !reflect.DeepEqual(rep, one[name]) {
			t.Errorf("%s: the report under GOMAXPROCS 4 differs from the one under GOMAXPROCS 1", name)
		}
	}
}
