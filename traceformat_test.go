package commprof

import (
	"bytes"
	"testing"
)

// TestTraceFormatComposesWithAnalysisOptions is a regression guard for the
// facade: the trace format is only the wire encoding, so a run recorded under
// any analysis feature — sharding, phase windows, the redundancy fast path
// and the accuracy monitor, alone or all at once — must replay under the same
// features to the live run's result, with the feature reports attached.
func TestTraceFormatComposesWithAnalysisOptions(t *testing.T) {
	const threads = 8
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
			rec := path.opts
			rec.Workload, rec.Threads = "fft", threads
			var recorded bytes.Buffer
			live, err := Record(rec, &recorded)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Replay(&recorded, threads, path.opts)
			if err != nil {
				t.Fatal(err)
			}
			if path.opts.PhaseWindow > 0 && rep.PhaseTimeline == nil {
				t.Error("phase timeline missing")
			}
			if path.opts.RedundancyCacheBits > 0 && rep.Redundancy == nil {
				t.Error("redundancy report missing")
			}
			if path.opts.AccuracyTargetFPR > 0 && rep.Accuracy == nil {
				t.Error("accuracy report missing")
			}
			if rep.Dependencies != live.Dependencies || rep.CommBytes != live.CommBytes {
				t.Errorf("replay: %d deps / %d bytes, live run found %d / %d",
					rep.Dependencies, rep.CommBytes, live.Dependencies, live.CommBytes)
			}
			if !matrixEqual(rep.Global, live.Global) {
				t.Error("replayed global matrix differs from the live run's")
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
