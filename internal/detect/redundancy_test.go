package detect

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/exec"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// recordWorkloadStream runs one bundled workload on the deterministic engine
// and captures its access stream plus region table.
func recordWorkloadStream(t *testing.T, name string, threads int) ([]trace.Access, *trace.Table) {
	t.Helper()
	prog, err := splash.New(name, splash.Config{Threads: threads, Size: splash.SimDev, Seed: 42})
	if err != nil {
		t.Fatalf("splash.New(%s): %v", name, err)
	}
	var stream []trace.Access
	eng := exec.New(exec.Options{Threads: threads, Probe: func(a trace.Access) {
		stream = append(stream, a)
	}})
	if _, err := prog.Run(eng); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return stream, prog.Table()
}

// TestRedundancyFilterBitIdenticalAllWorkloads is the fast path's acceptance
// property: on the exact (perfect-signature) backend, a filtered detector
// produces the same event stream, matrices, region tree and access counters
// as an unfiltered one — bit for bit — on the deterministic simdev stream of
// every bundled workload, across randomized cache sizes and granularities.
// This pins the soundness argument in the internal/redundancy package
// comment against the real access patterns the profiler exists for.
func TestRedundancyFilterBitIdenticalAllWorkloads(t *testing.T) {
	const threads = 16
	rng := rand.New(rand.NewSource(0x5eed))
	grans := []uint{0, 3, 6}
	var totalHits uint64
	for _, name := range splash.Names() {
		// Draw the configuration outside t.Run so the sequence is stable
		// under -run filtering of individual subtests.
		bits := uint(1 + rng.Intn(14))
		gran := grans[rng.Intn(len(grans))]
		name := name
		t.Run(fmt.Sprintf("%s/bits=%d/gran=%d", name, bits, gran), func(t *testing.T) {
			stream, table := recordWorkloadStream(t, name, threads)
			run := func(cacheBits uint) (*Detector, []Event) {
				var events []Event
				d, err := New(Options{
					Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
					GranularityBits:     gran,
					RedundancyCacheBits: cacheBits,
					OnEvent:             func(e Event) { events = append(events, e) },
				})
				if err != nil {
					t.Fatal(err)
				}
				d.ProcessBatch(stream)
				return d, events
			}
			ref, refEvents := run(0)
			filt, filtEvents := run(bits)

			if len(refEvents) != len(filtEvents) {
				t.Fatalf("event count diverged: %d unfiltered, %d filtered", len(refEvents), len(filtEvents))
			}
			for i := range refEvents {
				if refEvents[i] != filtEvents[i] {
					t.Fatalf("event %d diverged: unfiltered %+v, filtered %+v", i, refEvents[i], filtEvents[i])
				}
			}
			if ref.Stats() != filt.Stats() {
				t.Fatalf("stats diverged: unfiltered %+v, filtered %+v (skips must still count as processed)",
					ref.Stats(), filt.Stats())
			}
			if !filt.Global().Equal(ref.Global()) {
				t.Fatal("global matrix diverged")
			}
			refTree, err := ref.Tree()
			if err != nil {
				t.Fatal(err)
			}
			filtTree, err := filt.Tree()
			if err != nil {
				t.Fatal(err)
			}
			mismatches := 0
			filtNodes := regionNodes(filtTree)
			refTree.Walk(func(n *comm.Node, _ int) {
				m, ok := filtNodes[n.Region.ID]
				if !ok || !m.Own.Equal(n.Own) || !m.Cumulative.Equal(n.Cumulative) || m.Accesses != n.Accesses {
					mismatches++
				}
			})
			if mismatches > 0 {
				t.Fatalf("%d region nodes diverged between unfiltered and filtered trees", mismatches)
			}
			st, ok := filt.RedundancyStats()
			if !ok {
				t.Fatal("RedundancyStats reported the cache off")
			}
			if st.Lookups() != filt.Stats().Processed {
				t.Fatalf("cache saw %d lookups for %d processed accesses", st.Lookups(), filt.Stats().Processed)
			}
			totalHits += st.Hits
		})
	}
	if totalHits == 0 {
		t.Error("the fast path never skipped a single access across all workloads — filter is inert")
	}
}

// TestRedundancyCrossThreadWriteInvalidates pins the invalidation edge the
// whole design hinges on: a write by another thread replaces a cached read
// entry, so the reader's next access goes back to the backend and the RAW
// event is detected exactly as without the cache.
func TestRedundancyCrossThreadWriteInvalidates(t *testing.T) {
	d, err := New(Options{Threads: 2, Backend: sig.NewPerfect(2), RedundancyCacheBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x1000
	if _, ok := d.Process(trace.Access{Addr: addr, Thread: 1, Kind: trace.Read, Size: 8}); ok {
		t.Fatal("read before any write produced an event")
	}
	if _, ok := d.Process(trace.Access{Addr: addr, Thread: 1, Kind: trace.Read, Size: 8}); ok {
		t.Fatal("repeated read produced an event")
	}
	d.Process(trace.Access{Addr: addr, Thread: 0, Kind: trace.Write, Size: 8})
	ev, ok := d.Process(trace.Access{Addr: addr, Thread: 1, Kind: trace.Read, Size: 8})
	if !ok || ev.Writer != 0 || ev.Reader != 1 {
		t.Fatalf("read after cross-thread write must be an event from writer 0, got %+v ok=%v", ev, ok)
	}
	st, _ := d.RedundancyStats()
	if st.Hits != 1 {
		t.Errorf("want exactly 1 fast-path hit (the repeated read), got %d", st.Hits)
	}
}

// TestRedundancyOwnWriteReadWriteChain walks the rule-3/rule-2 chain of an
// accumulator loop (read-modify-write of a private location) and then checks
// a foreign reader still sees the dependency.
func TestRedundancyOwnWriteReadWriteChain(t *testing.T) {
	d, err := New(Options{Threads: 2, Backend: sig.NewPerfect(2), RedundancyCacheBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x2000
	d.Process(trace.Access{Addr: addr, Thread: 0, Kind: trace.Write, Size: 8})
	for i := 0; i < 3; i++ {
		if _, ok := d.Process(trace.Access{Addr: addr, Thread: 0, Kind: trace.Read, Size: 8}); ok {
			t.Fatal("read of own write produced an event")
		}
		if _, ok := d.Process(trace.Access{Addr: addr, Thread: 0, Kind: trace.Write, Size: 8}); ok {
			t.Fatal("write produced an event")
		}
	}
	st, _ := d.RedundancyStats()
	// Rule 3 skips every read over the resident write entry, and because a
	// rule-3 hit leaves the entry as (thread, write), rule 2 then skips every
	// following write: the whole accumulator steady state stays off the
	// backend.
	if st.Hits != 6 {
		t.Errorf("want 6 fast-path hits in the R/W chain, got %d", st.Hits)
	}
	ev, ok := d.Process(trace.Access{Addr: addr, Thread: 1, Kind: trace.Read, Size: 8})
	if !ok || ev.Writer != 0 {
		t.Fatalf("foreign read after the chain must be an event from writer 0, got %+v ok=%v", ev, ok)
	}
}

// TestRedundancyGranularityAliasing checks the cache keys on granules, not
// byte addresses: with 8-byte granularity two neighbouring addresses alias to
// one entry (second read skips), and the filtered detector still reports the
// same granule-level RAW event an unfiltered one does.
func TestRedundancyGranularityAliasing(t *testing.T) {
	stream := []trace.Access{
		{Addr: 0x1000, Thread: 0, Kind: trace.Read, Size: 4},
		{Addr: 0x1004, Thread: 0, Kind: trace.Read, Size: 4}, // same granule: rule-1 hit
		{Addr: 0x1000, Thread: 1, Kind: trace.Write, Size: 4},
		{Addr: 0x1004, Thread: 0, Kind: trace.Read, Size: 4}, // granule-level RAW from thread 1
	}
	run := func(cacheBits uint) (*Detector, []Event) {
		var events []Event
		d, err := New(Options{
			Threads: 2, Backend: sig.NewPerfect(2), GranularityBits: 3,
			RedundancyCacheBits: cacheBits,
			OnEvent:             func(e Event) { events = append(events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		d.ProcessBatch(stream)
		return d, events
	}
	_, refEvents := run(0)
	filt, filtEvents := run(8)
	if len(refEvents) != 1 || len(filtEvents) != 1 || refEvents[0] != filtEvents[0] {
		t.Fatalf("granule aliasing diverged: unfiltered %+v, filtered %+v", refEvents, filtEvents)
	}
	if filtEvents[0].Writer != 1 || filtEvents[0].Reader != 0 {
		t.Fatalf("want event writer=1 reader=0, got %+v", filtEvents[0])
	}
	st, _ := filt.RedundancyStats()
	if st.Hits != 1 {
		t.Errorf("want 1 fast-path hit (the aliased second read), got %d", st.Hits)
	}
}

func TestRedundancyStatsOffByDefault(t *testing.T) {
	d, err := New(Options{Threads: 2, Backend: sig.NewPerfect(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.RedundancyStats(); ok {
		t.Error("RedundancyStats reported a cache on a detector built without one")
	}
	if _, err := New(Options{Threads: 2, Backend: sig.NewPerfect(2), RedundancyCacheBits: 99}); err == nil {
		t.Error("absurd RedundancyCacheBits accepted")
	}
}

// Hot-path benchmark fixture: one recorded access stream shared by
// BenchmarkProcessBatch's sub-benchmarks. BENCH_APP / BENCH_SIZE /
// BENCH_REDUN_BITS pick the input (defaults: radix simdev 14).
var hotBenchFixture struct {
	once   sync.Once
	stream []trace.Access
	table  *trace.Table
	err    error
}

const hotBenchThreads = 32
const hotBenchSlots = 1 << 20

func hotBenchStream(b *testing.B) ([]trace.Access, *trace.Table) {
	hotBenchFixture.once.Do(func() {
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
			hotBenchFixture.err = err
			return
		}
		prog, err := splash.New(app, splash.Config{Threads: hotBenchThreads, Size: size, Seed: 42})
		if err != nil {
			hotBenchFixture.err = err
			return
		}
		eng := exec.New(exec.Options{Threads: hotBenchThreads, Probe: func(a trace.Access) {
			hotBenchFixture.stream = append(hotBenchFixture.stream, a)
		}})
		if _, err := prog.Run(eng); err != nil {
			hotBenchFixture.err = err
			return
		}
		hotBenchFixture.table = prog.Table()
	})
	if hotBenchFixture.err != nil {
		b.Fatal(hotBenchFixture.err)
	}
	return hotBenchFixture.stream, hotBenchFixture.table
}

// BenchmarkProcessBatch is the kernel's in-package meter: ns/access over a
// recorded workload stream fed in 256-access batches, for the kernel alone
// ("plain": every access pays the full asymmetric-signature cost) and behind
// the redundancy fast path ("cache"; read the hitrate metric for the skip
// fraction). The end-to-end rows these stand behind are bench/'s replay,
// synth-local and live.
func BenchmarkProcessBatch(b *testing.B) {
	stream, table := hotBenchStream(b)
	for _, c := range kernelConfigs {
		cacheBits := c.cacheBits
		if s := os.Getenv("BENCH_REDUN_BITS"); s != "" && cacheBits > 0 {
			v, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				b.Fatalf("BENCH_REDUN_BITS: %v", err)
			}
			cacheBits = uint(v)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var last *Detector
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				last = kernelDetector(b, hotBenchThreads, hotBenchSlots, table, cacheBits)
				b.StartTimer()
				for j := 0; j < len(stream); j += 256 {
					last.ProcessBatch(stream[j:min(j+256, len(stream))])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(stream)*b.N), "ns/access")
			if st, ok := last.RedundancyStats(); ok {
				b.ReportMetric(st.HitRate(), "hitrate")
			}
		})
	}
}
