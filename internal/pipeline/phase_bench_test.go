package pipeline

import (
	"testing"

	"commprof/internal/comm"
)

// BenchmarkPhaseWindowOverhead measures what windowed phase tracking adds to
// the sharded per-access cost: the same stream, shard count and signature
// budget, with PhaseWindow off (baseline) and on (windowed accumulation plus
// an OnWindowClose consumer). The acceptance budget is <=5% on simlarge; the
// tracked number is bench/'s comm.window_ns_per_event.
func BenchmarkPhaseWindowOverhead(b *testing.B) {
	stream, table := benchStream(b)
	const shards = 8
	run := func(b *testing.B, window uint64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := New(Options{
				Shards: shards, Threads: benchThreads, Table: table,
				QueueCapacity: 1 << 14,
				PhaseWindow:   window,
				NewBackend:    AsymmetricFactory(benchSlots, shards, benchThreads, 0.001, nil),
				OnWindowClose: func(w *comm.Window, end uint64) {},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			e.ProcessBatch(stream)
			e.Close()
		}
		if s := b.Elapsed().Seconds(); s > 0 && len(stream) > 0 {
			b.ReportMetric(s*1e9/(float64(len(stream))*float64(b.N)), "ns/access")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on", func(b *testing.B) {
		// ~100 windows over the stream, matching the CLI's typical -phases
		// resolution on this input.
		window := uint64(len(stream)/100 + 1)
		run(b, window)
	})
}
