package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/obs"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// wallConfig is one cell of the kernel's differential wall.
type wallConfig struct {
	backend                string // "mask", "bloom", "perfect"
	cache, monitor, probes bool
}

func (c wallConfig) String() string {
	return fmt.Sprintf("%s/cache=%v/monitor=%v/probes=%v", c.backend, c.cache, c.monitor, c.probes)
}

// wallSlots is small enough that slot collisions, stale attributions and
// (on the paper's bloom layout) second-level false positives are frequent.
const wallSlots = 1 << 9

// newBackend builds the config's signature: the mask arena (w = ⌈t/32⌉ words
// per slot), the paper's bloom layout, or the perfect signature.
func (c wallConfig) newBackend(t *testing.T, threads int) sig.Backend {
	t.Helper()
	var s sig.Backend
	var err error
	switch opts := (sig.Options{Slots: wallSlots, Threads: threads}); c.backend {
	case "perfect":
		return sig.NewPerfect(threads)
	case "bloom":
		s, err = sig.NewBloom(opts, 0.01)
	default:
		s, err = sig.NewAsymmetric(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wallResult is everything a detector run leaves behind that a caller can see.
type wallResult struct {
	Events          []Event
	Global, Outside [][]uint64
	Regions         [][][]uint64
	RegionAccesses  []uint64
	Stats           Stats
	Redundancy      redundancy.Stats
	Accuracy        accuracy.Stats
	// ProbeEvents, ProbeStale, ProbeSkips, ProbeBytesN, ProbeBytesSum and
	// ProbeBytesBuckets read the DetectProbes bundle (all zero with probes off).
	ProbeEvents, ProbeStale, ProbeSkips, ProbeBytesN, ProbeBytesSum uint64

	ProbeBytesBuckets []obs.Bucket
}

// wallParts builds the optional layers a config switches on.
func (c wallConfig) parts(t *testing.T, threads int) (bits uint, mon *accuracy.Monitor, p *obs.DetectProbes) {
	if c.cache {
		bits = 6
	}
	if c.monitor {
		mon = newTestMonitor(t, threads, 1)
	}
	if c.probes {
		reg := obs.NewRegistry()
		p = &obs.DetectProbes{
			Events: reg.Counter("events"), StaleWriterDrops: reg.Counter("stale"),
			EventBytes: reg.Histogram("bytes"), RedundantSkips: reg.Counter("skips"),
		}
	}
	return bits, mon, p
}

func (r *wallResult) readProbes(p *obs.DetectProbes) {
	if p != nil {
		r.ProbeEvents, r.ProbeStale, r.ProbeSkips = p.Events.Value(), p.StaleWriterDrops.Value(), p.RedundantSkips.Value()
		s := p.EventBytes.Snapshot()
		r.ProbeBytesN, r.ProbeBytesSum, r.ProbeBytesBuckets = s.Count, s.Sum, s.Buckets
	}
}

// runKernel feeds stream to a fresh detector in slices of batch accesses
// (0 = the whole stream at once).
func (c wallConfig) runKernel(t *testing.T, stream []trace.Access, table *trace.Table, threads, batch int) wallResult {
	t.Helper()
	var res wallResult
	bits, mon, probes := c.parts(t, threads)
	d, err := New(Options{
		Threads: threads, Backend: c.newBackend(t, threads), Table: table,
		RedundancyCacheBits: bits, Accuracy: mon, Probes: probes,
		OnEvent: func(ev Event) { res.Events = append(res.Events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch == 0 {
		batch = len(stream)
	}
	for i := 0; i < len(stream); i += batch {
		d.ProcessBatch(stream[i:min(i+batch, len(stream))])
	}
	res.Global, res.Outside = d.Global().Rows(), d.Outside().Rows()
	for id := range table.Regions {
		m, err := d.RegionMatrix(int32(id))
		if err != nil {
			t.Fatal(err)
		}
		res.Regions = append(res.Regions, m.Rows())
	}
	res.RegionAccesses, res.Stats = d.RegionAccesses(), d.Stats()
	res.Redundancy, _ = d.RedundancyStats()
	if mon != nil {
		res.Accuracy = mon.Stats()
	}
	res.readProbes(probes)
	return res
}

// runReference is Algorithm 1 one access at a time, as Process read before
// the kernel existed: every layer through its public, counted entry point,
// nothing batched. It shares the layers with the kernel and none of the
// kernel's loop.
func (c wallConfig) runReference(t *testing.T, stream []trace.Access, table *trace.Table, threads int) wallResult {
	t.Helper()
	bits, mon, probes := c.parts(t, threads)
	backend := c.newBackend(t, threads)
	var cache *redundancy.Cache
	if bits > 0 {
		var err error
		if cache, err = redundancy.New(bits, threads); err != nil {
			t.Fatal(err)
		}
	}
	global, outside := comm.NewMatrix(threads), comm.NewMatrix(threads)
	regions := make([]*comm.Matrix, table.Len())
	for i := range regions {
		regions[i] = comm.NewMatrix(threads)
	}
	res := wallResult{RegionAccesses: make([]uint64, table.Len())}
	for _, a := range stream {
		res.Stats.Processed++
		inRegion := a.Region != trace.NoRegion && int(a.Region) < table.Len()
		if inRegion {
			res.RegionAccesses[a.Region]++
		}
		if cache != nil && cache.Redundant(a.Addr, a.Thread, a.Kind == trace.Write) {
			if probes != nil {
				probes.RedundantSkips.Inc()
			}
			continue
		}
		if a.Kind == trace.Write {
			backend.ObserveWrite(a.Addr, a.Thread)
			if mon != nil {
				mon.ObserveWrite(a.Addr, a.Thread)
			}
			continue
		}
		writer, first := backend.ObserveRead(a.Addr, a.Thread)
		ok := writer != sig.NoWriter && writer != a.Thread && first
		if ok && int(writer) >= threads {
			if probes != nil {
				probes.StaleWriterDrops.Inc()
			}
			ok = false
		}
		if mon != nil {
			mon.ObserveRead(a.Addr, a.Thread, ok, writer)
		}
		if !ok {
			continue
		}
		res.Stats.Detected++
		res.Stats.CommBytes += uint64(a.Size)
		if probes != nil {
			probes.Events.Inc()
			probes.EventBytes.Observe(uint64(a.Size))
		}
		global.Add(writer, a.Thread, uint64(a.Size))
		if inRegion {
			regions[a.Region].Add(writer, a.Thread, uint64(a.Size))
		} else {
			outside.Add(writer, a.Thread, uint64(a.Size))
		}
		res.Events = append(res.Events, Event{Time: a.Time, Writer: writer, Reader: a.Thread, Bytes: a.Size, Region: a.Region})
	}
	res.Global, res.Outside = global.Rows(), outside.Rows()
	for _, m := range regions {
		res.Regions = append(res.Regions, m.Rows())
	}
	if cache != nil {
		res.Redundancy = cache.Stats()
	}
	if mon != nil {
		res.Accuracy = mon.Stats()
	}
	res.readProbes(probes)
	return res
}

// collisionStream draws n accesses by threads threads from a universe of
// 16x wallSlots word addresses with a small hot set on top, so most slots
// hold several live addresses (first-level collisions, stale last writers)
// while the hot set keeps the redundancy cache hitting. Every eighth access
// falls outside the region table.
func collisionStream(n, threads int, table *trace.Table, seed int64) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	stream := make([]trace.Access, n)
	for i := range stream {
		addr := uint64(rng.Intn(16*wallSlots)) * 8
		if rng.Intn(4) == 0 {
			addr = uint64(rng.Intn(32)) * 8
		}
		a := trace.Access{
			Time: uint64(i + 1), Addr: addr, Size: uint32(1 << rng.Intn(4)),
			Thread: int32(rng.Intn(threads)), Region: int32(rng.Intn(table.Len())), Kind: trace.Read,
		}
		if rng.Intn(3) == 0 {
			a.Kind = trace.Write
		}
		if i%8 == 7 {
			a.Region = trace.NoRegion
		}
		stream[i] = a
	}
	return stream
}

// TestKernelDifferentialWall is the batch kernel's acceptance property: fed
// in batches of 1, 7, 256 or the whole stream, with any combination of
// redundancy cache, accuracy monitor and probes, over the exact mask arena at
// one, two (t = 33, the first two-word count) and three words per slot, the
// paper's bloom layout, and the perfect signature, it leaves exactly what the
// one-access-at-a-time reference leaves: matrices, region counters, every
// statistic, and the OnEvent sequence element for element.
func TestKernelDifferentialWall(t *testing.T) {
	synthTable := trace.NewTable()
	root := synthTable.AddFunc("main", trace.NoRegion)
	synthTable.AddLoop("a", root)
	synthTable.AddLoop("b", root)

	type input struct {
		name     string
		stream   []trace.Access
		table    *trace.Table
		threads  int
		backends []string
	}
	inputs := []input{
		{name: "collisions-16", stream: collisionStream(6000, 16, synthTable, 1), table: synthTable, threads: 16,
			backends: []string{"mask", "bloom", "perfect"}},
		{name: "collisions-33", stream: collisionStream(6000, 33, synthTable, 4), table: synthTable, threads: 33,
			backends: []string{"mask", "perfect"}},
		{name: "collisions-65", stream: collisionStream(6000, 65, synthTable, 2), table: synthTable, threads: 65,
			backends: []string{"mask", "perfect"}},
	}
	// Splash-mix shapes; the first 10 000 accesses of each keep the wall
	// affordable under the race detector (64 configurations x 5 runs).
	for _, app := range []string{"fft", "lu_ncb", "water_nsq"} {
		stream, table := recordWorkloadStream(t, app, 8)
		stream = stream[:min(len(stream), 10000)]
		inputs = append(inputs, input{name: app, stream: stream, table: table, threads: 8,
			backends: []string{"mask", "bloom", "perfect"}})
	}
	for _, in := range inputs {
		for _, backend := range in.backends {
			for mask := 0; mask < 8; mask++ {
				cfg := wallConfig{backend: backend, cache: mask&1 != 0, monitor: mask&2 != 0, probes: mask&4 != 0}
				want := cfg.runReference(t, in.stream, in.table, in.threads)
				if want.Stats.Detected == 0 {
					t.Fatalf("%s %v: reference detected nothing; the comparison is vacuous", in.name, cfg)
				}
				for _, batch := range []int{1, 7, 256, 0} {
					got := cfg.runKernel(t, in.stream, in.table, in.threads, batch)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %v batch %d: kernel differs from the reference\n got  stats %+v red %+v acc %+v events %d\n want stats %+v red %+v acc %+v events %d",
							in.name, cfg, batch, got.Stats, got.Redundancy, got.Accuracy, len(got.Events),
							want.Stats, want.Redundancy, want.Accuracy, len(want.Events))
					}
				}
			}
		}
	}
}

// kernelDetector builds the detector the allocation test and the benchmark
// share: the mask-layout signature, optionally cached.
func kernelDetector(tb testing.TB, threads int, slots uint64, table *trace.Table, cacheBits uint) *Detector {
	tb.Helper()
	backend, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: threads})
	if err != nil {
		tb.Fatal(err)
	}
	d, err := New(Options{
		Threads: threads, Backend: backend, Table: table,
		RedundancyCacheBits: cacheBits,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// kernelConfigs are the two configurations the end-to-end rows run: the
// kernel alone and the kernel behind the cache.
var kernelConfigs = []struct {
	name      string
	cacheBits uint
}{{"plain", 0}, {"cache", 14}}

// TestKernelZeroAlloc pins that a batch costs no allocation.
func TestKernelZeroAlloc(t *testing.T) {
	table := trace.NewTable()
	table.AddLoop("l", table.AddFunc("main", trace.NoRegion))
	batch := collisionStream(256, 16, table, 3)
	for _, c := range kernelConfigs {
		d := kernelDetector(t, 16, wallSlots, table, c.cacheBits)
		if n := testing.AllocsPerRun(100, func() { d.ProcessBatch(batch) }); n != 0 {
			t.Errorf("%s: ProcessBatch allocates %v per batch, want 0", c.name, n)
		}
	}
}
