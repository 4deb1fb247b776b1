package commprof

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"commprof/internal/exec"
	"commprof/internal/trace"
)

// pollTelemetry reads everything a live consumer reads — /progress, which
// walks the detectors' counters and the signatures' occupancy, and the
// Prometheus export's gauge functions — as fast as it can until stop closes.
// The run's own sampler goroutine ticks beside it.
func pollTelemetry(tel *Telemetry, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var sink bytes.Buffer
	for {
		select {
		case <-stop:
			return
		default:
		}
		tel.Progress()
		sink.Reset()
		_ = tel.WriteProm(&sink) // a bytes.Buffer cannot fail
		runtime.Gosched()
	}
}

// TestOwnedAnalysisUnderLiveTelemetry exists to run under -race: a run's
// detectors own their signatures and matrices and write them plainly — at
// K = 0 on the replay goroutine or an engine source's analyser goroutine, at
// K = 2 on the shard workers — while telemetry consumers read mid-run. What
// they may read of an owned structure is what the owner publishes per batch,
// and that must be enough for the answer to come out the same as an
// unobserved run's, for Replay and for the engine sources Profile and Record
// (whose trace must not change either).
func TestOwnedAnalysisUnderLiveTelemetry(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "radix", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, src := range []struct {
		name string
		run  func(Options) (*Report, error)
	}{
		{"Replay", func(opts Options) (*Report, error) { return Replay(bytes.NewReader(data), 8, opts) }},
		{"Profile", func(opts Options) (*Report, error) {
			opts.Workload, opts.Threads = "radix", 8
			return Profile(opts)
		}},
		{"Record", func(opts Options) (*Report, error) {
			opts.Workload, opts.Threads = "radix", 8
			var rec bytes.Buffer
			rep, err := Record(opts, &rec)
			if err == nil && !bytes.Equal(rec.Bytes(), data) {
				err = errors.New("the recorded trace differs from an unobserved recording's")
			}
			return rep, err
		}},
	} {
		for _, shards := range []int{0, 2} {
			opts := Options{AnalysisShards: shards, PhaseWindow: 2000, RedundancyCacheBits: 8}
			want, err := src.run(opts)
			if err != nil {
				t.Fatal(err)
			}

			tel := NewTelemetry()
			opts.Telemetry = tel
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go pollTelemetry(tel, stop, &wg)
			go pollTelemetry(tel, stop, &wg)
			got, err := src.run(opts)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("%s, shards %d: %v", src.name, shards, err)
			}
			p := tel.Progress()
			// Only the sections that hold timing-dependent peaks and the
			// telemetry itself differ between the two runs.
			got.Pipeline, got.Telemetry, got.Overhead = nil, nil, nil
			want.Pipeline = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, shards %d: a run observed mid-run reports differently from an unobserved one", src.name, shards)
			}
			if p.Accesses != got.Accesses || p.CommBytes != got.CommBytes {
				t.Errorf("%s, shards %d: final progress %d accesses / %d bytes, report %d / %d",
					src.name, shards, p.Accesses, p.CommBytes, got.Accesses, got.CommBytes)
			}
			if p.SigOccupancy <= 0 || p.SigOccupancy > 1 {
				t.Errorf("%s, shards %d: owned signature occupancy = %v, want in (0,1]", src.name, shards, p.SigOccupancy)
			}
			if err := tel.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQuantumBufferMatchesPerAccess pins the in-thread quantum buffer's
// semantics: a custom body whose access count is no multiple of the buffer
// (so finish must flush a remainder), analysed through Run, reports the same
// matrices, region counters and phase windows as the same body with every
// access handed to the detector on its own — with and without read sampling,
// which sits above the buffer.
func TestQuantumBufferMatchesPerAccess(t *testing.T) {
	const threads = 4
	regions := []Region{{Name: "main", Parent: -1}, {Name: "produce", Parent: 0, Loop: true}, {Name: "consume", Parent: 0, Loop: true}}
	body := func(th *exec.Thread) {
		id := uint64(th.ID())
		for round := uint64(0); round < 5; round++ {
			th.InRegion(1, func() {
				for i := uint64(0); i < 211; i++ {
					th.Write(0x4000+(id*211+i)*8, 8)
				}
			})
			th.Barrier()
			th.InRegion(2, func() {
				for i := uint64(0); i < 211; i++ {
					th.Read(0x4000+((id+1+round)%threads*211+i)*8, 8)
				}
			})
			th.Barrier()
		}
	}
	for _, opts := range []Options{
		{PhaseWindow: 500},
		{PhaseWindow: 500, SamplePeriod: 5, RedundancyCacheBits: 6},
	} {
		got, err := Run(threads, regions, func(th *Thread) { body(th.t) }, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accesses%quantumLen == 0 || got.Accesses < 2*quantumLen {
			t.Fatalf("%d accesses: want several buffers and a remainder", got.Accesses)
		}

		opts.setDefaults()
		table, err := buildTable(regions)
		if err != nil {
			t.Fatal(err)
		}
		an, err := newAnalysis(opts, threads, table)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := exec.New(exec.Options{Threads: threads, Probe: func(a trace.Access) {
			if !an.sampledOut(a.Kind, a.Thread) {
				an.pe.ProcessBatch([]trace.Access{a})
			}
		}}).Run(body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := an.finish("custom", stats.Accesses)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sampling 1/%d: the buffered run's report differs from the per-access run's\n got  %+v\n want %+v",
				opts.SamplePeriod, got, want)
		}
	}
}
