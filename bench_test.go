package commprof

// Go benchmarks over the paper's evaluation: one sub-benchmark per entry of
// experiments.Experiments, the table cmd/commbench runs, so
// `go test -bench Experiments/<id>` times what `commbench -exp <id>` prints.
// They run at 8 threads to keep iterations bounded; cmd/commbench runs the
// paper's 32. The tracked performance numbers are bench/'s, not these.

import (
	"bytes"
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

// splashMix is bench/'s splash mix: six bundled workloads and input sizes.
var splashMix = []struct{ program, size string }{
	{"fft", "simlarge"}, {"lu_ncb", "simlarge"}, {"water_nsq", "simlarge"},
	{"barnes", "simsmall"}, {"radix", "simdev"}, {"ocean_cp", "simdev"},
}

// BenchmarkProfileEndToEnd profiles the six workloads of bench/'s splash mix
// at 32 threads through Profile (the public API path a downstream user
// hits) and reports ns/access over all of them. The simulated threads hand
// each full quantum to an analyser goroutine behind them, so
// `go test -bench ProfileEndToEnd -cpu 1,2` compares one core with two.
func BenchmarkProfileEndToEnd(b *testing.B) {
	var accesses uint64
	for i := 0; i < b.N; i++ {
		for _, m := range splashMix {
			rep, err := Profile(Options{Workload: m.program, InputSize: m.size, Threads: 32})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Dependencies == 0 {
				b.Fatalf("%s: no dependencies", m.program)
			}
			accesses += rep.Accesses
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}

// BenchmarkReplay replays the six traces of bench/'s splash mix, recorded
// once in set-up at 32 threads, and reports ns/access over all of them.
// Replay decodes on the caller's goroutine beside the analyser goroutine,
// so `go test -bench Replay -cpu 1,2` compares one core with two.
func BenchmarkReplay(b *testing.B) {
	traces := make([][]byte, len(splashMix))
	var accesses uint64
	for i, m := range splashMix {
		var buf bytes.Buffer
		rep, err := Record(Options{Workload: m.program, InputSize: m.size, Threads: 32}, &buf)
		if err != nil {
			b.Fatal(err)
		}
		traces[i], accesses = buf.Bytes(), accesses+rep.Accesses
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			if _, err := Replay(bytes.NewReader(tr), 32, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses)/float64(b.N), "ns/access")
}
