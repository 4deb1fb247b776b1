package commprof

import (
	"bytes"
	"testing"

	"commprof/internal/trace"
)

// TestGranularityAppliedOnEveryPath is a regression test: GranularityBits
// used to reach only the sharded pipeline, so serial ProfileTrace and serial
// Replay silently analysed at word granularity regardless of the option. A
// write and a read 8 bytes apart communicate only when coarsened to 64-byte
// lines, on every facade path.
func TestGranularityAppliedOnEveryPath(t *testing.T) {
	regions := []Region{{Name: "r", Parent: -1, Loop: true}}
	accs := []Access{
		{Kind: WriteAccess, Addr: 0x1000, Size: 8, Thread: 0, Region: 0, Time: 1},
		{Kind: ReadAccess, Addr: 0x1008, Size: 8, Thread: 1, Region: 0, Time: 2},
	}
	tb := trace.NewTable()
	tb.AddLoop("r", -1)
	var buf bytes.Buffer
	s := &trace.Stream{Table: tb, Accesses: []trace.Access{
		{Kind: trace.Write, Addr: 0x1000, Size: 8, Thread: 0, Region: 0, Time: 1},
		{Kind: trace.Read, Addr: 0x1008, Size: 8, Thread: 1, Region: 0, Time: 2},
	}}
	if err := s.EncodeVersion(&buf, trace.DefaultVersion, 2); err != nil {
		t.Fatal(err)
	}

	paths := map[string]func(gran uint) (*Report, error){
		"trace-serial": func(gran uint) (*Report, error) {
			return ProfileTrace(accs, regions, 2, Options{Threads: 2, GranularityBits: gran})
		},
		"trace-sharded": func(gran uint) (*Report, error) {
			return ProfileTrace(accs, regions, 2, Options{Threads: 2, GranularityBits: gran, AnalysisShards: 2})
		},
		"replay-serial": func(gran uint) (*Report, error) {
			return Replay(bytes.NewReader(buf.Bytes()), 2, Options{GranularityBits: gran})
		},
		"replay-sharded": func(gran uint) (*Report, error) {
			return Replay(bytes.NewReader(buf.Bytes()), 2, Options{GranularityBits: gran, AnalysisShards: 2})
		},
	}
	for name, profile := range paths {
		fine, err := profile(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fine.Dependencies != 0 {
			t.Errorf("%s: word granularity found %d deps, want 0", name, fine.Dependencies)
		}
		coarse, err := profile(6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if coarse.Dependencies != 1 {
			t.Errorf("%s: line granularity found %d deps, want 1 (GranularityBits dropped?)", name, coarse.Dependencies)
		}
	}
}
