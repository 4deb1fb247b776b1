package commprof

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestReplayCrossVersionAllWorkloads is the codec-compatibility acceptance
// test: every bundled workload's recorded trace, transcoded to each format
// version, replays to a bit-identical report on both the serial and sharded
// analysers. The recording happens once (v3, the only format recorded); v1
// and v2 are produced by re-encoding the decoded stream, so any divergence is
// the codec's fault, not run-to-run noise.
func TestReplayCrossVersionAllWorkloads(t *testing.T) {
	const threads = 8
	for _, name := range Workloads() {
		t.Run(name, func(t *testing.T) {
			var v3 bytes.Buffer
			if _, err := Record(Options{Workload: name, Threads: threads}, &v3); err != nil {
				t.Fatal(err)
			}
			v1 := bytes.NewBuffer(transcode(t, v3.Bytes(), 1, threads))
			v2 := bytes.NewBuffer(transcode(t, v3.Bytes(), 2, threads))
			if v3.Len() >= v1.Len() {
				t.Errorf("v3 (%d bytes) not smaller than v1 (%d bytes)", v3.Len(), v1.Len())
			}
			encodings := []struct {
				version int
				data    []byte
			}{{1, v1.Bytes()}, {2, v2.Bytes()}, {3, v3.Bytes()}}

			for _, mode := range []struct {
				name string
				opts Options
			}{
				{"serial", Options{}},
				{"sharded", Options{AnalysisShards: 4}},
			} {
				var ref []byte
				for _, enc := range encodings {
					rep, err := Replay(bytes.NewReader(enc.data), threads, mode.opts)
					if err != nil {
						t.Fatalf("%s v%d: %v", mode.name, enc.version, err)
					}
					// Queue depths, flush counts and peak residency vary with
					// worker scheduling; everything analytical must not.
					rep.Pipeline = nil
					got, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = got
						continue
					}
					if !bytes.Equal(got, ref) {
						t.Errorf("%s: v%d report differs from v1:\nv1: %s\nv%d: %s",
							mode.name, enc.version, ref, enc.version, got)
					}
				}
			}
		})
	}
}
