package commprof

// Go benchmarks over the paper's evaluation: one sub-benchmark per entry of
// experiments.Experiments, the table cmd/commbench runs, so
// `go test -bench Experiments/<id>` times what `commbench -exp <id>` prints.
// They run at 8 threads to keep iterations bounded; cmd/commbench runs the
// paper's 32. The tracked performance numbers are bench/'s, not these.

import (
	"testing"

	"commprof/internal/experiments"
)

// BenchmarkExperiments regenerates every table and figure of the evaluation
// from live runs.
func BenchmarkExperiments(b *testing.B) {
	env := experiments.DefaultEnv()
	env.Threads = 8
	for _, e := range experiments.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileEndToEnd measures one full Profile call (the public API
// path a downstream user hits).
func BenchmarkProfileEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Profile(Options{Workload: "lu_ncb", Threads: 8})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Dependencies == 0 {
			b.Fatal("no dependencies")
		}
	}
}
