package pipeline

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// Benchmark fixture: one recorded access stream shared by every benchmark in
// the package. BENCH_APP / BENCH_SIZE pick the workload (default radix simdev
// for quick local runs).
var benchFixture struct {
	once   sync.Once
	stream []trace.Access
	table  *trace.Table
	err    error
}

const benchThreads = 32
const benchSlots = 1 << 20

func benchStream(b *testing.B) ([]trace.Access, *trace.Table) {
	benchFixture.once.Do(func() {
		app := os.Getenv("BENCH_APP")
		if app == "" {
			app = "radix"
		}
		sizeName := os.Getenv("BENCH_SIZE")
		if sizeName == "" {
			sizeName = "simdev"
		}
		size, err := splash.ParseSize(sizeName)
		if err != nil {
			benchFixture.err = err
			return
		}
		prog, err := splash.New(app, splash.Config{Threads: benchThreads, Size: size, Seed: 42})
		if err != nil {
			benchFixture.err = err
			return
		}
		eng := exec.New(exec.Options{Threads: benchThreads, Probe: func(a trace.Access) {
			benchFixture.stream = append(benchFixture.stream, a)
		}})
		if _, err := prog.Run(eng); err != nil {
			benchFixture.err = err
			return
		}
		benchFixture.table = prog.Table()
	})
	if benchFixture.err != nil {
		b.Fatal(benchFixture.err)
	}
	return benchFixture.stream, benchFixture.table
}

// BenchmarkSerialProcessStream is the baseline: the single serial detector
// funnel every access historically passed through.
func BenchmarkSerialProcessStream(b *testing.B) {
	stream, table := benchStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		backend, err := sig.NewAsymmetric(sig.Options{Slots: benchSlots, Threads: benchThreads})
		if err != nil {
			b.Fatal(err)
		}
		d, err := detect.New(detect.Options{Threads: benchThreads, Backend: backend, Table: table})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d.ProcessBatch(stream)
	}
	reportEventRate(b, len(stream))
}

// BenchmarkPipelineProcessStream measures the sharded analyser over the same
// stream at several shard counts. Parallel speedup requires spare cores:
// with GOMAXPROCS=1 the sharded rows measure pure queueing overhead.
func BenchmarkPipelineProcessStream(b *testing.B) {
	stream, table := benchStream(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(benchName(shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := New(Options{
					Shards: shards, Threads: benchThreads, Table: table,
					QueueCapacity: 1 << 14,
					NewBackend:    AsymmetricFactory(benchSlots, shards, benchThreads, 0.001, nil),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				e.ProcessBatch(stream)
				e.Close()
			}
			reportEventRate(b, len(stream))
		})
	}
}

func benchName(shards int) string {
	return fmt.Sprintf("shards-%d", shards)
}

func reportEventRate(b *testing.B, events int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/s, "events/s")
	}
}
