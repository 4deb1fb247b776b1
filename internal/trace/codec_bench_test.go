package trace_test

// Codec throughput benchmarks (the tracked numbers are bench/'s trace.*
// metrics). They live in an external test package because the fixture replays a bundled splash
// workload (splash imports trace; an in-package test would cycle).
//
// Fixture selection:
//
//	BENCH_TRACE=path   decode an existing trace file (e.g. a commtrace
//	                   recording of a real instrumented Go program)
//	BENCH_APP/BENCH_SIZE  run a bundled workload on the deterministic
//	                   engine (default fft/simdev)
//
// Reported metrics: B/rec (encoded bytes per record), acc/s (decoded
// accesses per second), the standard MB/s from b.SetBytes, and B/op and
// allocs/op: the decoder's set-up, since steady-state decode allocates
// nothing on any path.

import (
	"bytes"
	"io"
	"os"
	"sync"
	"testing"

	"commprof/internal/splash"
	"commprof/internal/trace"
)

const codecBenchThreads = 32

var codecFixture struct {
	once sync.Once
	s    *trace.Stream
	enc  []byte
	err  error
}

func codecStream(b *testing.B) *trace.Stream {
	codecFixture.once.Do(func() {
		if path := os.Getenv("BENCH_TRACE"); path != "" {
			f, err := os.Open(path)
			if err != nil {
				codecFixture.err = err
				return
			}
			defer f.Close()
			codecFixture.s, codecFixture.err = trace.DecodeAll(f)
			return
		}
		app := os.Getenv("BENCH_APP")
		if app == "" {
			app = "fft"
		}
		sizeName := os.Getenv("BENCH_SIZE")
		if sizeName == "" {
			sizeName = "simdev"
		}
		size, err := splash.ParseSize(sizeName)
		if err != nil {
			codecFixture.err = err
			return
		}
		codecFixture.s, codecFixture.err = recordWorkload(app, codecBenchThreads, size)
	})
	if codecFixture.err != nil {
		b.Fatal(codecFixture.err)
	}
	if len(codecFixture.s.Accesses) == 0 {
		b.Fatal("empty benchmark stream")
	}
	return codecFixture.s
}

// codecEncoded renders the fixture through the encoder, once.
func codecEncoded(b *testing.B) []byte {
	s := codecStream(b)
	if codecFixture.enc == nil {
		var buf bytes.Buffer
		if err := s.EncodeVersion(&buf, trace.DefaultVersion, 0); err != nil {
			b.Fatal(err)
		}
		codecFixture.enc = buf.Bytes()
	}
	return codecFixture.enc
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkCodecEncode meters the v3 encoder per record: "write" is one
// Encoder.Write call per access, "batch" one WriteBatch over the whole stream
// (EncodeVersion), mirroring BenchmarkCodecDecode's v3-next and v3-batch.
func BenchmarkCodecEncode(b *testing.B) {
	s := codecStream(b)
	threads := 0
	for _, a := range s.Accesses {
		threads = max(threads, int(a.Thread)+1)
	}
	for _, path := range []string{"write", "batch"} {
		b.Run(path, func(b *testing.B) {
			b.ReportAllocs()
			var written int64
			for i := 0; i < b.N; i++ {
				var cw countWriter
				enc, err := trace.NewEncoderVersion(&cw, s.Table, len(s.Accesses), threads, trace.DefaultVersion)
				if err != nil {
					b.Fatal(err)
				}
				if path == "batch" {
					err = enc.WriteBatch(s.Accesses)
				} else {
					for _, a := range s.Accesses {
						if err = enc.Write(a); err != nil {
							break
						}
					}
				}
				if err == nil {
					err = enc.Close()
				}
				if err != nil {
					b.Fatal(err)
				}
				written = cw.n
			}
			b.SetBytes(written)
			b.ReportMetric(float64(written)/float64(len(s.Accesses)), "B/rec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.Accesses)), "ns/rec")
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	s := codecStream(b)
	data := codecEncoded(b)
	for _, path := range []string{"next", "batch", "foreach"} {
		b.Run("v3-"+path, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			buf := make([]trace.Access, 0, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := trace.NewDecoder(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				decoded := 0
				switch path {
				case "foreach":
					if err := dec.ForEach(func(trace.Access) error { decoded++; return nil }); err != nil {
						b.Fatal(err)
					}
				case "batch":
					for {
						buf, err = dec.NextBatch(buf)
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
						decoded += len(buf)
					}
				default:
					for {
						_, err := dec.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
						decoded++
					}
				}
				if decoded != len(s.Accesses) {
					b.Fatalf("decoded %d of %d records", decoded, len(s.Accesses))
				}
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(len(s.Accesses))*float64(b.N)/sec, "acc/s")
			}
		})
	}
}
