package commprof

import (
	"bytes"
	"testing"
)

// TestTraceFormatComposesWithAnalysisOptions is a regression guard for the
// facade: the format version is only the wire encoding, so a trace in any
// format must replay identically under every analysis feature — sharding,
// phase windows, the redundancy fast path and the accuracy monitor — with
// the feature reports still attached.
func TestTraceFormatComposesWithAnalysisOptions(t *testing.T) {
	const threads = 8
	var recorded bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: threads}, &recorded); err != nil {
		t.Fatal(err)
	}
	bufs := map[int][]byte{
		1: transcode(t, recorded.Bytes(), 1, threads),
		2: transcode(t, recorded.Bytes(), 2, threads),
		3: recorded.Bytes(),
	}

	paths := []struct {
		name string
		opts Options
	}{
		{"serial-phases", Options{PhaseWindow: 2000}},
		{"sharded", Options{AnalysisShards: 2}},
		{"sharded-phases", Options{AnalysisShards: 2, PhaseWindow: 2000}},
		{"sharded-redundancy", Options{AnalysisShards: 2, RedundancyCacheBits: 6}},
		{"sharded-accuracy", Options{AnalysisShards: 2, AccuracyTargetFPR: 0.05, AccuracySampleBits: 1}},
		{"kitchen-sink", Options{AnalysisShards: 4, PhaseWindow: 2000, RedundancyCacheBits: 6, AccuracyTargetFPR: 0.05}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			var want *Report
			for _, version := range []int{1, 2, 3} {
				rep, err := Replay(bytes.NewReader(bufs[version]), threads, path.opts)
				if err != nil {
					t.Fatalf("v%d: %v", version, err)
				}
				if path.opts.PhaseWindow > 0 && rep.PhaseTimeline == nil {
					t.Errorf("v%d: phase timeline missing", version)
				}
				if path.opts.RedundancyCacheBits > 0 && rep.Redundancy == nil {
					t.Errorf("v%d: redundancy report missing", version)
				}
				if path.opts.AccuracyTargetFPR > 0 && rep.Accuracy == nil {
					t.Errorf("v%d: accuracy report missing", version)
				}
				if want == nil {
					want = rep
					continue
				}
				if rep.Dependencies != want.Dependencies || rep.CommBytes != want.CommBytes {
					t.Errorf("v%d: %d deps / %d bytes, v1 found %d / %d",
						version, rep.Dependencies, rep.CommBytes, want.Dependencies, want.CommBytes)
				}
				if !matrixEqual(rep.Global, want.Global) {
					t.Errorf("v%d: global matrix differs from v1", version)
				}
			}
		})
	}
}

func matrixEqual(a, b Matrix) bool {
	if len(a.Bytes) != len(b.Bytes) {
		return false
	}
	for i := range a.Bytes {
		if len(a.Bytes[i]) != len(b.Bytes[i]) {
			return false
		}
		for j := range a.Bytes[i] {
			if a.Bytes[i][j] != b.Bytes[i][j] {
				return false
			}
		}
	}
	return true
}
