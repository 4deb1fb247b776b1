package commprof

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"commprof/internal/trace"
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

// TestOnlyV3IsRead pins the one trace format on the read side: a header
// declaring any version but 3 is refused by name, by the decoder and by
// Replay, while the same header declaring 3 (no regions, no records, 8
// threads) replays to an empty report.
func TestOnlyV3IsRead(t *testing.T) {
	header := func(version uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 0x43504d54) // "CPMT"
		b = binary.LittleEndian.AppendUint32(b, version)
		b = binary.LittleEndian.AppendUint32(b, 0) // regions
		b = binary.LittleEndian.AppendUint32(b, 0) // accesses
		return binary.LittleEndian.AppendUint32(b, 8)
	}
	for _, version := range []uint32{0, 1, 2, 4, 0xFFFFFFFF} {
		want := fmt.Sprintf("unsupported version %d (only v3 is read)", version)
		if _, err := trace.NewDecoder(bytes.NewReader(header(version))); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewDecoder on version %d: err = %v, want %q", version, err, want)
		}
		if _, err := Replay(bytes.NewReader(header(version)), 0, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Replay on version %d: err = %v, want %q", version, err, want)
		}
	}
	if rep, err := Replay(bytes.NewReader(header(3)), 0, Options{}); err != nil || rep.Threads != 8 {
		t.Errorf("Replay on version 3: %v", err)
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
