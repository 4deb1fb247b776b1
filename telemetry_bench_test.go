package commprof

import (
	"testing"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// BenchmarkProbeOverhead isolates the cost of the self-observability hooks on
// the engine hot path. The acceptance bar for this layer is that
// "uninstrumented" (hooks compiled in but disabled via nil probe bundles)
// stays within a few percent of what the engine cost before the hooks
// existed, and the sub-benchmarks quantify the step to live counters and to
// the full profiler.
//
//	go test -bench=ProbeOverhead -benchtime=2s .
func BenchmarkProbeOverhead(b *testing.B) {
	const (
		threads   = 8
		perThread = 4096
	)
	body := func(t *exec.Thread) {
		base := uint64(t.ID()) << 32
		for i := uint64(0); i < perThread; i++ {
			t.Write(base+i*8, 8)
			t.Read(base+i*8, 8)
		}
		t.Barrier()
	}
	accesses := float64(threads * perThread * 2)
	run := func(b *testing.B, mk func() exec.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			eng := exec.New(mk())
			if _, err := eng.Run(body); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/accesses, "ns/access")
	}

	b.Run("uninstrumented", func(b *testing.B) {
		run(b, func() exec.Options {
			return exec.Options{Threads: threads} // nil Probe, nil Probes
		})
	})

	b.Run("obs-enabled", func(b *testing.B) {
		reg := obs.NewRegistry()
		probes := obs.DefaultProbes(reg)
		run(b, func() exec.Options {
			return exec.Options{Threads: threads, Probes: probes.Engine}
		})
	})

	b.Run("full-profiler", func(b *testing.B) {
		reg := obs.NewRegistry()
		probes := obs.DefaultProbes(reg)
		table := trace.NewTable()
		table.AddFunc("main", -1)
		run(b, func() exec.Options {
			backend, err := sig.NewAsymmetric(sig.Options{
				Slots: 1 << 20, Threads: threads,
				Probes: probes.Sig,
			})
			if err != nil {
				b.Fatal(err)
			}
			d, err := detect.New(detect.Options{
				Threads: threads, Backend: backend, Table: table,
				Probes: probes.Detect,
			})
			if err != nil {
				b.Fatal(err)
			}
			return exec.Options{Threads: threads, Probe: d.Probe(), Probes: probes.Engine}
		})
	})
}
