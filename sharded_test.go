package commprof

import (
	"bytes"
	"testing"
)

func TestProfileSharded(t *testing.T) {
	rep, err := Profile(Options{Workload: "radix", Threads: 8, AnalysisShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dependencies == 0 || rep.CommBytes == 0 {
		t.Fatalf("sharded run detected nothing: %+v", rep)
	}
	if rep.Global.Total() != rep.CommBytes {
		t.Fatalf("global matrix total %d != CommBytes %d", rep.Global.Total(), rep.CommBytes)
	}
	p := rep.Pipeline
	if p == nil {
		t.Fatal("sharded run has no Pipeline report section")
	}
	if p.Shards != 4 {
		t.Fatalf("pipeline section: %+v", p)
	}
	var analysed uint64
	for _, n := range p.ShardProcessed {
		analysed += n
	}
	if analysed != rep.Accesses {
		t.Fatalf("shards analysed %d of %d accesses", analysed, rep.Accesses)
	}
}

func TestProfileTraceParallelMatchesSerial(t *testing.T) {
	regions := []Region{
		{Name: "main", Parent: -1},
		{Name: "main#loop", Parent: 0, Loop: true},
	}
	var accesses []Access
	var now uint64
	// 3 writers broadcasting to 3 readers over 60 addresses. The facade uses
	// the asymmetric signature, whose ~0.1% bloom false positives fall on
	// different accesses when the slot budget is partitioned, so sharded and
	// serial agree statistically, not bitwise (bitwise equivalence is pinned
	// with exact backends in internal/pipeline's tests).
	for round := 0; round < 6; round++ {
		w := int32(round % 3)
		for a := 0; a < 60; a++ {
			now++
			accesses = append(accesses, Access{Kind: WriteAccess, Addr: uint64(a) * 64, Size: 8, Thread: w, Region: 1, Time: now})
		}
		for r := int32(0); r < 4; r++ {
			if r == w {
				continue
			}
			for a := 0; a < 60; a++ {
				now++
				accesses = append(accesses, Access{Kind: ReadAccess, Addr: uint64(a) * 64, Size: 8, Thread: r, Region: 1, Time: now})
			}
		}
	}
	serial, err := ProfileTrace(accesses, regions, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := ProfileTrace(accesses, regions, 4, Options{AnalysisShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	within := func(got, want uint64, what string) {
		t.Helper()
		diff := got - want
		if want > got {
			diff = want - got
		}
		if diff*100 > want {
			t.Fatalf("%s: sharded %d vs serial %d differs by more than 1%%", what, got, want)
		}
	}
	within(sharded.Dependencies, serial.Dependencies, "dependencies")
	within(sharded.CommBytes, serial.CommBytes, "comm bytes")
	if sharded.Accesses != serial.Accesses {
		t.Fatalf("sharded saw %d accesses, serial %d", sharded.Accesses, serial.Accesses)
	}
	if sharded.Pipeline == nil || sharded.Pipeline.Shards != 4 {
		t.Fatalf("pipeline section: %+v", sharded.Pipeline)
	}
}

func TestProfileTraceParallelSampling(t *testing.T) {
	accesses := []Access{
		{Kind: WriteAccess, Addr: 0x100, Size: 8, Thread: 0, Region: -1, Time: 1},
		{Kind: ReadAccess, Addr: 0x100, Size: 8, Thread: 1, Region: -1, Time: 2},
		{Kind: ReadAccess, Addr: 0x100, Size: 8, Thread: 1, Region: -1, Time: 3},
	}
	rep, err := ProfileTrace(accesses, nil, 2, Options{AnalysisShards: 2, SamplePeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampleFraction != 0.25 {
		t.Fatalf("SampleFraction = %v, want 0.25", rep.SampleFraction)
	}
	if rep.Accesses != 3 {
		t.Fatalf("Accesses = %d: sampling must not change the reported access count", rep.Accesses)
	}
}

func TestProfileTraceParallelValidation(t *testing.T) {
	if _, err := ProfileTrace(nil, nil, 0, Options{}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := ProfileTrace([]Access{{Thread: 9}}, nil, 2, Options{}); err == nil {
		t.Error("out-of-range thread accepted")
	}
	if _, err := ProfileTrace(nil, nil, 2, Options{AnalysisShards: -3}); err == nil {
		t.Error("negative AnalysisShards accepted")
	}
}

func TestReplaySharded(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	serial, err := Replay(bytes.NewReader(data), 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Replay(bytes.NewReader(data), 8, Options{AnalysisShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Accesses != serial.Accesses {
		t.Fatalf("sharded replay saw %d accesses, serial %d", sharded.Accesses, serial.Accesses)
	}
	if sharded.Dependencies == 0 {
		t.Fatal("sharded replay detected nothing")
	}
	if sharded.Pipeline == nil || sharded.Pipeline.Shards != 4 {
		t.Fatalf("pipeline section: %+v", sharded.Pipeline)
	}
}

// TestReplayShardedBoundedResidency is the streaming-replay check at the
// facade: replaying a simlarge trace (millions of accesses) through the
// sharded engine reports an in-flight access peak bounded by the default
// queues and staging buffers, shards × (8192 + 256), whatever the trace's
// length. internal/pipeline holds the same bound at a 512-access queue to
// under 1% of the stream.
func TestReplayShardedBoundedResidency(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "radix", Threads: 8, InputSize: "simlarge"}, &buf); err != nil {
		t.Fatal(err)
	}
	const shards = 4
	rep, err := Replay(bytes.NewReader(buf.Bytes()), 8, Options{AnalysisShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pipeline == nil {
		t.Fatal("sharded replay produced no pipeline report")
	}
	if rep.Pipeline.ProducerFlushes == 0 {
		t.Fatal("no producer flushes recorded on a multi-million-access replay")
	}
	if peak, bound := rep.Pipeline.PeakResidentAccesses, shards*(8192+256); peak <= 0 || peak > bound {
		t.Fatalf("peak resident accesses %d outside (0, %d]", peak, bound)
	}
}

func TestTelemetryShardedRun(t *testing.T) {
	tel := NewTelemetry()
	rep, err := Profile(Options{Workload: "radix", Threads: 8, AnalysisShards: 3, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Progress()
	if len(snap.ShardDepths) != 3 {
		t.Fatalf("progress shard depths: %v", snap.ShardDepths)
	}
	if snap.Accesses != rep.Accesses {
		t.Fatalf("progress accesses %d != report %d", snap.Accesses, rep.Accesses)
	}
	tr := rep.Telemetry
	if tr == nil {
		t.Fatal("no telemetry report")
	}
	if tr.Counters["pipeline_enqueued_total"] != rep.Accesses {
		t.Fatalf("pipeline_enqueued_total = %d, want %d", tr.Counters["pipeline_enqueued_total"], rep.Accesses)
	}
	if _, ok := tr.Gauges["pipeline_shard_2_depth"]; !ok {
		t.Fatal("per-shard depth gauge missing from registry")
	}
	var sawDrain bool
	for _, sp := range tr.Spans {
		if sp.Name == "pipeline-drain" {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("pipeline-drain span missing")
	}
}
