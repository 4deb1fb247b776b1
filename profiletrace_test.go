package commprof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"commprof/internal/trace"
)

// publicTrace decodes a recorded trace into ProfileTrace's input: the access
// stream, the region list and the decoded region table.
func publicTrace(t *testing.T, data []byte) ([]Access, []Region, *trace.Table) {
	t.Helper()
	dec, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var accesses []Access
	if err := dec.ForEach(func(a trace.Access) error {
		k := ReadAccess
		if a.Kind == trace.Write {
			k = WriteAccess
		}
		accesses = append(accesses, Access{Kind: k, Addr: a.Addr, Size: a.Size, Thread: a.Thread, Region: a.Region, Time: a.Time})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	table := dec.Table()
	regions := make([]Region, len(table.Regions))
	for i, r := range table.Regions {
		regions[i] = Region{Name: r.Name, Parent: r.Parent, Loop: r.Kind == trace.LoopRegion, File: r.File, Line: r.Line}
	}
	return accesses, regions, table
}

// encodeTrace writes accesses as a v3 trace over table, for Replay.
func encodeTrace(t *testing.T, accesses []Access, table *trace.Table, threads int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewEncoderVersion(&buf, table, len(accesses), threads, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accesses {
		k := trace.Read
		if a.Kind == WriteAccess {
			k = trace.Write
		}
		if err := enc.Write(trace.Access{Time: a.Time, Addr: a.Addr, Size: a.Size, Thread: a.Thread, Region: a.Region, Kind: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileTraceMatchesReplay holds ProfileTrace's conversion loop to the
// decoder path: the same stream through ProfileTrace and through Replay gives
// bit-identical reports, in-thread and sharded, with and without read
// sampling, on lengths that end in a partial quantum. A bad thread
// is named by its index on both paths.
func TestProfileTraceMatchesReplay(t *testing.T) {
	const threads = 8
	for _, app := range []string{"fft", "radix", "barnes"} {
		var rec bytes.Buffer
		if _, err := Record(Options{Workload: app, Threads: threads}, &rec); err != nil {
			t.Fatal(err)
		}
		accesses, regions, table := publicTrace(t, rec.Bytes())
		full := len(accesses)
		if full%256 == 0 {
			full--
		}
		for _, n := range []int{1000, full} {
			stream := accesses[:n]
			data := encodeTrace(t, stream, table, threads)
			for _, shards := range []int{0, 2} {
				for _, period := range []uint32{0, 4} {
					opts := Options{AnalysisShards: shards, SamplePeriod: period}
					got, err := ProfileTrace(stream, regions, threads, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Replay(bytes.NewReader(data), threads, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Accesses != uint64(n) || (n == full && got.Dependencies == 0) {
						t.Errorf("%s[:%d] K=%d sample=%d: %d accesses, %d dependencies", app, n, shards, period, got.Accesses, got.Dependencies)
					}
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"Global", got.Global, want.Global},
						{"Regions", got.Regions, want.Regions},
						{"Hotspots", got.Hotspots, want.Hotspots},
						{"Dependencies", got.Dependencies, want.Dependencies},
						{"CommBytes", got.CommBytes, want.CommBytes},
						{"Accesses", got.Accesses, want.Accesses},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Errorf("%s[:%d] K=%d sample=%d: %s differs between ProfileTrace and Replay", app, n, shards, period, f.name)
						}
					}
				}
			}
		}
		if app != "fft" {
			continue
		}
		bad := append([]Access(nil), accesses[:1000]...)
		bad[300].Thread = threads
		if _, err := ProfileTrace(bad, regions, threads, Options{}); err == nil || !strings.Contains(err.Error(), "access 300 ") {
			t.Errorf("ProfileTrace with a bad thread at 300: error %v, want one naming access 300", err)
		}
		if _, err := Replay(bytes.NewReader(encodeTrace(t, bad, table, threads+1)), threads, Options{}); err == nil || !strings.Contains(err.Error(), "access 300 ") {
			t.Errorf("Replay with a bad thread at 300: error %v, want one naming access 300", err)
		}
	}
}

// synthLocalStream is a stream shaped like the benchmark's synth-local
// workload: bursts of 16 accesses by one of 32 threads sweeping its private
// 64-word block (every fourth word written, the rest read), and one access in
// 64 reading the next thread's halo word instead. The redundancy cache
// absorbs nearly all of it, so the conversion loop is a large share of the
// cost.
func synthLocalStream(n int) []Access {
	const threads, words, wordBytes, base = 32, 64, 8, 0x1000_0000
	x := uint64(0x9E3779B97F4A7C15)
	draw := func(m uint64) uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return (x * 0x2545F4914F6CDD1D >> 11) % m
	}
	out := make([]Access, n)
	var pos [threads]uint64
	var th uint64
	for i := range out {
		if i%16 == 0 {
			th = draw(threads)
		}
		a := &out[i]
		a.Size, a.Thread, a.Region, a.Time = wordBytes, int32(th), 1, uint64(i+1)
		if draw(64) == 0 {
			a.Addr = base + (((th+1)%threads)*words+3)*wordBytes
			continue
		}
		w := pos[th]
		pos[th] = (w + 1) % words
		a.Addr = base + (th*words+w)*wordBytes
		if w%4 == 3 {
			a.Kind = WriteAccess
		}
	}
	return out
}

// BenchmarkProfileTrace times ProfileTrace with a 2^14-entry redundancy cache
// over a synth-local-shaped stream and reports ns per access.
func BenchmarkProfileTrace(b *testing.B) {
	stream := synthLocalStream(1 << 19)
	regions := []Region{{Name: "main", Parent: -1}, {Name: "sweep", Parent: 0, Loop: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileTrace(stream, regions, 32, Options{RedundancyCacheBits: 14}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/access")
}
