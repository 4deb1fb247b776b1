package passes

import (
	"sort"
	"testing"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/interp"
	"commprof/internal/sig"
)

// BenchmarkCoalesce measures the static-coalescing payoff on the structured
// kernel corpus: one sub-benchmark per kernel and pass state, reporting
// ns/access (normalised to the UNCOALESCED access count on both sides, so
// on/off ratios read directly as speedup) plus the emitted and elided stream
// sizes. (commbench -exp coalesce reports the emitted-access reduction.)
func BenchmarkCoalesce(b *testing.B) {
	kernels := CoalesceKernels()
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)

	const threads = 8
	for _, name := range names {
		src := kernels[name]
		for _, mode := range []struct {
			label    string
			coalesce bool
		}{{"on", true}, {"off", false}} {
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				// Compile once: the pass is a one-time static cost, and
				// ns/access measures the recurring execute+analyse loop the
				// elision thins.
				mod, table, _, err := CompileWith(src, Options{Coalesce: mode.coalesce})
				if err != nil {
					b.Fatal(err)
				}
				run := func() (exec.Stats, error) {
					rt, err := interp.New(mod)
					if err != nil {
						return exec.Stats{}, err
					}
					d, err := detect.New(detect.Options{
						Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
					})
					if err != nil {
						return exec.Stats{}, err
					}
					eng := exec.New(exec.Options{Threads: threads, Quantum: 1 << 30, Probe: d.Probe()})
					return rt.Run(eng)
				}
				stats, err := run() // warm-up establishes the stream accounting
				if err != nil {
					b.Fatal(err)
				}
				total := stats.Accesses // includes elided ticks

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := run(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				// ResetTimer clears earlier ReportMetric values, so all
				// metrics land here.
				b.ReportMetric(float64(total-stats.Elided), "emitted")
				b.ReportMetric(float64(stats.Elided), "elided")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/access")
			})
		}
	}
}
