package commprof

import (
	"bytes"
	"os"
	"sync"
	"testing"
)

// Benchmark fixture: one recorded trace shared by both timeline
// sub-benchmarks. BENCH_APP / BENCH_SIZE pick the workload (default fft
// simdev for quick local runs).
var timelineFixture struct {
	once     sync.Once
	data     []byte
	accesses float64
	err      error
}

func timelineTrace(b *testing.B) ([]byte, float64) {
	timelineFixture.once.Do(func() {
		app := os.Getenv("BENCH_APP")
		if app == "" {
			app = "fft"
		}
		size := os.Getenv("BENCH_SIZE")
		if size == "" {
			size = "simdev"
		}
		var buf bytes.Buffer
		rep, err := Record(Options{Workload: app, Threads: 8, InputSize: size, Seed: 42}, &buf)
		if err != nil {
			timelineFixture.err = err
			return
		}
		timelineFixture.data = buf.Bytes()
		timelineFixture.accesses = float64(rep.Accesses)
	})
	if timelineFixture.err != nil {
		b.Fatal(timelineFixture.err)
	}
	return timelineFixture.data, timelineFixture.accesses
}

// BenchmarkTimelineOverhead quantifies what the execution-timeline layer
// costs on a sharded replay. "off" is the disabled path: no Telemetry, so
// every timeline/stage-histogram site is a nil-check no-op. "on" enables the
// full layer — span tracks, stage latency histograms, overhead attribution
// and the counter-track sampler. The acceptance budget is 5%; the tracked
// number is bench/'s obs.telemetry_ns_per_access on replay-full.
//
//	go test -bench TimelineOverhead -benchtime 3x .
func BenchmarkTimelineOverhead(b *testing.B) {
	data, accesses := timelineTrace(b)
	run := func(b *testing.B, mkTel func() *Telemetry) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			tel := mkTel()
			if _, err := Replay(bytes.NewReader(data), 8, Options{
				AnalysisShards: 4, Telemetry: tel,
			}); err != nil {
				b.Fatal(err)
			}
			if tel != nil {
				tel.Close()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/accesses, "ns/access")
	}

	b.Run("off", func(b *testing.B) {
		run(b, func() *Telemetry { return nil })
	})

	b.Run("on", func(b *testing.B) {
		run(b, func() *Telemetry {
			tel := NewTelemetry()
			tel.EnableTimeline()
			return tel
		})
	})
}
