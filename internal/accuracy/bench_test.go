// Monitor overhead benchmarks: the detection hot loop with the accuracy
// monitor off and at sample slices 1/64, 1/8 and 1/1. BENCH_APP / BENCH_SIZE
// pick the workload (defaults: radix simdev); the acceptance bar is ≤5%
// overhead over the monitor-off baseline at 1/64 sampling on simlarge, and
// the tracked number is bench/'s accuracy.ns_per_access.
//
// External test package: internal/detect imports internal/accuracy, so a
// benchmark that drives a real Detector must live outside package accuracy.
package accuracy_test

import (
	"os"
	"sync"
	"testing"

	"commprof/internal/accuracy"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

var monBenchFixture struct {
	once   sync.Once
	stream []trace.Access
	table  *trace.Table
	err    error
}

const monBenchThreads = 32
const monBenchSlots = 1 << 20

func monBenchStream(b *testing.B) ([]trace.Access, *trace.Table) {
	monBenchFixture.once.Do(func() {
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
			monBenchFixture.err = err
			return
		}
		prog, err := splash.New(app, splash.Config{Threads: monBenchThreads, Size: size, Seed: 42})
		if err != nil {
			monBenchFixture.err = err
			return
		}
		eng := exec.New(exec.Options{Threads: monBenchThreads, Probe: func(a trace.Access) {
			monBenchFixture.stream = append(monBenchFixture.stream, a)
		}})
		if _, err := prog.Run(eng); err != nil {
			monBenchFixture.err = err
			return
		}
		monBenchFixture.table = prog.Table()
	})
	if monBenchFixture.err != nil {
		b.Fatal(monBenchFixture.err)
	}
	return monBenchFixture.stream, monBenchFixture.table
}

// benchMonitored runs the detection loop with an accuracy monitor at the
// given slice width; bits < 0 disables the monitor (the baseline).
func benchMonitored(b *testing.B, bits int) {
	stream, table := monBenchStream(b)
	b.ReportAllocs()
	var last *accuracy.Monitor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		backend, err := sig.NewAsymmetric(sig.Options{Slots: monBenchSlots, Threads: monBenchThreads})
		if err != nil {
			b.Fatal(err)
		}
		dopts := detect.Options{Threads: monBenchThreads, Backend: backend, Table: table}
		if bits >= 0 {
			mon, err := accuracy.New(accuracy.Options{
				Threads: monBenchThreads, SampleBits: uint(bits), TargetFPR: accuracy.DefaultTargetFPR,
			})
			if err != nil {
				b.Fatal(err)
			}
			dopts.Accuracy = mon
		}
		last = dopts.Accuracy
		d, err := detect.New(dopts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d.ProcessBatch(stream)
	}
	if s := b.Elapsed().Nanoseconds(); s > 0 && len(stream) > 0 {
		b.ReportMetric(float64(s)/float64(len(stream)*b.N), "ns/access")
	}
	if mon := last; mon != nil {
		st := mon.Stats()
		if len(stream) > 0 {
			b.ReportMetric(float64(st.SampledAccesses)/float64(len(stream)), "sampled_frac")
		}
		b.ReportMetric(float64(mon.ShadowFootprintBytes()), "shadow_bytes")
	}
}

// BenchmarkProcessMonitorOff is the unmonitored baseline hot loop.
func BenchmarkProcessMonitorOff(b *testing.B) { benchMonitored(b, -1) }

// BenchmarkProcessMonitor64th shadows 1/64 of the granule space — the
// recommended production setting (acceptance: ≤5% over the baseline).
func BenchmarkProcessMonitor64th(b *testing.B) { benchMonitored(b, 6) }

// BenchmarkProcessMonitor8th shadows 1/8 of the granule space.
func BenchmarkProcessMonitor8th(b *testing.B) { benchMonitored(b, 3) }

// BenchmarkProcessMonitorFull shadows every granule (the exact-diff
// configuration; the shadow is as large as the working set).
func BenchmarkProcessMonitorFull(b *testing.B) { benchMonitored(b, 0) }
