package detect

import (
	"math/rand"
	"testing"
	"testing/quick"

	"commprof/internal/comm"
	"commprof/internal/exec"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

func newDetector(t *testing.T, threads int, table *trace.Table) *Detector {
	t.Helper()
	s, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 18, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Options{Threads: threads, Backend: s, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// regionNodes indexes a tree's nodes by region ID.
func regionNodes(tree *comm.Tree) map[int32]*comm.Node {
	nodes := map[int32]*comm.Node{}
	tree.Walk(func(n *comm.Node, _ int) { nodes[n.Region.ID] = n })
	return nodes
}

func TestNewValidation(t *testing.T) {
	s := sig.NewPerfect(2)
	if _, err := New(Options{Threads: 0, Backend: s}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := New(Options{Threads: 2}); err == nil {
		t.Error("nil backend accepted")
	}
	bad := &trace.Table{Regions: []trace.Region{{ID: 7}}}
	if _, err := New(Options{Threads: 2, Backend: s, Table: bad}); err == nil {
		t.Error("invalid table accepted")
	}
}

func TestBasicRAWDetection(t *testing.T) {
	d := newDetector(t, 4, nil)
	// T0 writes, T1 reads -> one event of 8 bytes.
	d.Process(trace.Access{Time: 1, Addr: 0x100, Size: 8, Thread: 0, Region: trace.NoRegion, Kind: trace.Write})
	ev, ok := d.Process(trace.Access{Time: 2, Addr: 0x100, Size: 8, Thread: 1, Region: trace.NoRegion, Kind: trace.Read})
	if !ok || ev.Writer != 0 || ev.Reader != 1 || ev.Bytes != 8 {
		t.Fatalf("event = %+v ok=%v", ev, ok)
	}
	if d.Global().At(0, 1) != 8 {
		t.Fatalf("matrix cell = %d", d.Global().At(0, 1))
	}
}

// TestFigure2Scenario replays the access pattern of the paper's Fig. 2 on a
// single memory location and checks which accesses count as communicating.
func TestFigure2Scenario(t *testing.T) {
	d := newDetector(t, 4, nil)
	const addr = 0x800
	type step struct {
		tid  int32
		kind trace.Kind
		comm bool // expected: this access is a communicating access
	}
	steps := []step{
		{1, trace.Write, false}, // T1 writes the location
		{2, trace.Read, true},   // T2's first read of T1's value: communicates
		{2, trace.Read, false},  // repeat read: non-communicating (gray in Fig. 2)
		{3, trace.Read, true},   // T3's first read: communicates
		{1, trace.Read, false},  // T1 reads its own write: no inter-thread dep
		{2, trace.Write, false}, // T2 overwrites: resets reader set
		{1, trace.Read, true},   // T1 now reads T2's value: communicates
		{3, trace.Read, true},   // T3 reads again after the new write: communicates
		{3, trace.Read, false},  // repeat: non-communicating
	}
	for i, s := range steps {
		_, got := d.Process(trace.Access{Time: uint64(i + 1), Addr: addr, Size: 4, Thread: s.tid, Kind: s.kind})
		if got != s.comm {
			t.Fatalf("step %d (%+v): comm=%v, want %v", i, s, got, s.comm)
		}
	}
	// Volume check: T1->T2 4B, T1->T3 4B, T2->T1 4B, T2->T3 4B.
	m := d.Global()
	if m.At(1, 2) != 4 || m.At(1, 3) != 4 || m.At(2, 1) != 4 || m.At(2, 3) != 4 {
		t.Fatalf("matrix: %v", m.Rows())
	}
	if m.Total() != 16 {
		t.Fatalf("total = %d, want 16", m.Total())
	}
}

func TestReadBeforeAnyWriteIsNotCommunication(t *testing.T) {
	d := newDetector(t, 2, nil)
	if _, ok := d.Process(trace.Access{Time: 1, Addr: 0x10, Size: 8, Thread: 1, Kind: trace.Read}); ok {
		t.Fatal("read of never-written address reported as communication")
	}
}

func TestSelfReadNotCommunication(t *testing.T) {
	d := newDetector(t, 2, nil)
	d.Process(trace.Access{Time: 1, Addr: 0x20, Size: 8, Thread: 0, Kind: trace.Write})
	if _, ok := d.Process(trace.Access{Time: 2, Addr: 0x20, Size: 8, Thread: 0, Kind: trace.Read}); ok {
		t.Fatal("same-thread RAW reported as communication")
	}
}

func TestFalseCommunicationResilience(t *testing.T) {
	// §V-A5: two threads using the same address at different times, each
	// reading only its own writes, must produce zero communication.
	d := newDetector(t, 2, nil)
	tm := uint64(0)
	next := func() uint64 { tm++; return tm }
	for i := 0; i < 10; i++ {
		d.Process(trace.Access{Time: next(), Addr: 0x30, Size: 8, Thread: 0, Kind: trace.Write})
		d.Process(trace.Access{Time: next(), Addr: 0x30, Size: 8, Thread: 0, Kind: trace.Read})
	}
	for i := 0; i < 10; i++ {
		d.Process(trace.Access{Time: next(), Addr: 0x30, Size: 8, Thread: 1, Kind: trace.Write})
		d.Process(trace.Access{Time: next(), Addr: 0x30, Size: 8, Thread: 1, Kind: trace.Read})
	}
	// T1 writes before it ever reads, so every one of its reads follows its
	// own write: zero false communication despite the shared address.
	if got := d.Global().Total(); got != 0 {
		t.Fatalf("communicated bytes = %d, want 0 (address reuse is not communication)", got)
	}
}

func TestFirstAccessOnlyPerWriteEpoch(t *testing.T) {
	d := newDetector(t, 3, nil)
	d.Process(trace.Access{Time: 1, Addr: 0x40, Size: 4, Thread: 0, Kind: trace.Write})
	for i := 0; i < 5; i++ {
		d.Process(trace.Access{Time: uint64(2 + i), Addr: 0x40, Size: 4, Thread: 1, Kind: trace.Read})
	}
	if d.Global().At(0, 1) != 4 {
		t.Fatalf("repeated reads double-counted: %d", d.Global().At(0, 1))
	}
	// New write epoch: the same reader counts once more.
	d.Process(trace.Access{Time: 10, Addr: 0x40, Size: 4, Thread: 2, Kind: trace.Write})
	d.Process(trace.Access{Time: 11, Addr: 0x40, Size: 4, Thread: 1, Kind: trace.Read})
	if d.Global().At(2, 1) != 4 {
		t.Fatalf("post-rewrite read not counted")
	}
}

func TestRegionAttribution(t *testing.T) {
	tb := trace.NewTable()
	f := tb.AddFunc("f", trace.NoRegion)
	loop := tb.AddLoop("f#0", f)
	d := newDetector(t, 2, tb)
	d.Process(trace.Access{Time: 1, Addr: 0x50, Size: 8, Thread: 0, Region: loop, Kind: trace.Write})
	d.Process(trace.Access{Time: 2, Addr: 0x50, Size: 8, Thread: 1, Region: loop, Kind: trace.Read})
	d.Process(trace.Access{Time: 3, Addr: 0x58, Size: 8, Thread: 0, Region: trace.NoRegion, Kind: trace.Write})
	d.Process(trace.Access{Time: 4, Addr: 0x58, Size: 8, Thread: 1, Region: trace.NoRegion, Kind: trace.Read})

	lm, err := d.RegionMatrix(loop)
	if err != nil {
		t.Fatal(err)
	}
	if lm.At(0, 1) != 8 {
		t.Fatalf("loop matrix = %d", lm.At(0, 1))
	}
	tree, err := d.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckSummationLaw(); err != nil {
		t.Fatal(err)
	}
	// Function node inherits the loop's traffic via summation.
	fn := regionNodes(tree)[f]
	if fn.Cumulative.Total() != 8 {
		t.Fatalf("func cumulative = %d", fn.Cumulative.Total())
	}
	// Global includes both; outside-region traffic tracked separately.
	if d.Global().Total() != 16 || tree.Outside.Total() != 8 {
		t.Fatalf("global=%d outside=%d", d.Global().Total(), tree.Outside.Total())
	}
}

func TestTreeWithoutTableErrors(t *testing.T) {
	d := newDetector(t, 2, nil)
	if _, err := d.Tree(); err == nil {
		t.Error("Tree without table must error")
	}
	if _, err := d.RegionMatrix(0); err == nil {
		t.Error("RegionMatrix without table must error")
	}
}

func TestStatsAndEvents(t *testing.T) {
	var events []Event
	s := sig.NewPerfect(2)
	d, err := New(Options{Threads: 2, Backend: s, OnEvent: func(e Event) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	d.Process(trace.Access{Time: 1, Addr: 1, Size: 8, Thread: 0, Kind: trace.Write})
	d.Process(trace.Access{Time: 2, Addr: 1, Size: 8, Thread: 1, Kind: trace.Read})
	d.Process(trace.Access{Time: 3, Addr: 1, Size: 8, Thread: 1, Kind: trace.Read})
	st := d.Stats()
	if st.Processed != 3 || st.Detected != 1 || st.CommBytes != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if len(events) != 1 || events[0].Time != 2 {
		t.Fatalf("events = %+v", events)
	}
}

func TestDetectorMatchesPerfectOnLargeSignature(t *testing.T) {
	// Property: with a signature far larger than the address set, the
	// asymmetric detector's matrix equals the perfect detector's.
	f := func(seed int64) bool {
		asym, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 20, Threads: 8})
		if err != nil {
			return false
		}
		dA, _ := New(Options{Threads: 8, Backend: asym})
		dP, _ := New(Options{Threads: 8, Backend: sig.NewPerfect(8)})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			a := trace.Access{
				Time:   uint64(i),
				Addr:   uint64(0x1000 + 8*rng.Intn(64)),
				Size:   8,
				Thread: int32(rng.Intn(8)),
				Kind:   trace.Kind(rng.Intn(2)),
				Region: trace.NoRegion,
			}
			dA.Process(a)
			dP.Process(a)
		}
		return dA.Global().Equal(dP.Global())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLargerSignatureAgreesBetter(t *testing.T) {
	// Collisions corrupt small signatures in both directions: colliding
	// writes overwrite writer IDs and clear reader sets (false positives and
	// lost deps), and shared bloom filters suppress first-reads. What the
	// paper's §V-A3 sweep asserts is monotonicity: more slots → results
	// closer to the perfect signature. Measure event-count disagreement for
	// two sizes and require the larger signature to disagree less.
	disagreement := func(slots uint64) float64 {
		asym, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: 8})
		if err != nil {
			t.Fatal(err)
		}
		dA, _ := New(Options{Threads: 8, Backend: asym})
		dP, _ := New(Options{Threads: 8, Backend: sig.NewPerfect(8)})
		rng := rand.New(rand.NewSource(11))
		mismatch, events := 0, 0
		for i := 0; i < 30000; i++ {
			a := trace.Access{
				Time:   uint64(i),
				Addr:   uint64(0x1000 + 8*rng.Intn(4096)),
				Size:   8,
				Thread: int32(rng.Intn(8)),
				Kind:   trace.Kind(rng.Intn(2)),
				Region: trace.NoRegion,
			}
			evA, okA := dA.Process(a)
			evP, okP := dP.Process(a)
			if okA || okP {
				events++
				if okA != okP || evA.Writer != evP.Writer {
					mismatch++
				}
			}
		}
		return float64(mismatch) / float64(events)
	}
	small, large := disagreement(256), disagreement(1<<18)
	if large >= small {
		t.Fatalf("disagreement did not shrink with signature size: %v (256 slots) vs %v (256k slots)", small, large)
	}
	if large > 0.01 {
		t.Fatalf("large signature disagreement %v too high", large)
	}
}

func TestProbeIntegrationWithEngine(t *testing.T) {
	// End-to-end: producer/consumer over the executor. Even threads write a
	// block, odd threads read their left neighbour's block after a barrier.
	tb := trace.NewTable()
	f := tb.AddFunc("pipeline", trace.NoRegion)
	loop := tb.AddLoop("pipeline#0", f)
	d := newDetector(t, 4, tb)
	e := exec.New(exec.Options{Threads: 4, Probe: d.Probe()})
	_, err := e.Run(func(th *exec.Thread) {
		th.EnterRegion(f)
		defer th.ExitRegion()
		base := uint64(0x10000 + uint64(th.ID()/2)*0x1000)
		th.InRegion(loop, func() {
			if th.ID()%2 == 0 {
				for i := uint64(0); i < 16; i++ {
					th.Write(base+8*i, 8)
				}
			}
		})
		th.Barrier()
		th.InRegion(loop, func() {
			if th.ID()%2 == 1 {
				for i := uint64(0); i < 16; i++ {
					th.Read(base+8*i, 8)
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Global()
	if m.At(0, 1) != 128 || m.At(2, 3) != 128 {
		t.Fatalf("pipeline matrix wrong: %v", m.Rows())
	}
	if m.Total() != 256 {
		t.Fatalf("total = %d", m.Total())
	}
	lm, err := d.RegionMatrix(loop)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Total() != 256 {
		t.Fatalf("loop-attributed total = %d", lm.Total())
	}
}

func BenchmarkDetectorProcess(b *testing.B) {
	s, _ := sig.NewAsymmetric(sig.Options{Slots: 1 << 20, Threads: 32})
	d, _ := New(Options{Threads: 32, Backend: s})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := trace.Read
		if i%4 == 0 {
			kind = trace.Write
		}
		d.Process(trace.Access{Time: uint64(i), Addr: uint64(i&0xffff) * 8, Size: 8, Thread: int32(i & 31), Kind: kind, Region: trace.NoRegion})
	}
}

func TestGranularityCoarseningMergesNeighbours(t *testing.T) {
	// Two adjacent 8-byte words. At word granularity they are independent;
	// at 64-byte line granularity a write to one invalidates (and a read of
	// the other hits) the same line — false sharing appears.
	accesses := []trace.Access{
		{Time: 1, Addr: 0x1000, Size: 8, Thread: 0, Kind: trace.Write, Region: trace.NoRegion},
		{Time: 2, Addr: 0x1008, Size: 8, Thread: 1, Kind: trace.Read, Region: trace.NoRegion},
	}
	fine := newDetector(t, 2, nil)
	fine.ProcessBatch(accesses)
	if fine.Stats().Detected != 0 {
		t.Fatalf("word granularity found %d deps across distinct words", fine.Stats().Detected)
	}

	s, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 16, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := New(Options{Threads: 2, Backend: s, GranularityBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	coarse.ProcessBatch(accesses)
	if coarse.Stats().Detected != 1 {
		t.Fatalf("line granularity found %d deps, want 1 (false sharing)", coarse.Stats().Detected)
	}
}

func TestGranularityPreservesTrueDeps(t *testing.T) {
	// Same-address RAW must be detected at every granularity.
	for _, bits := range []uint{0, 3, 6, 12} {
		s, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 16, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(Options{Threads: 2, Backend: s, GranularityBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		d.Process(trace.Access{Time: 1, Addr: 0x2000, Size: 8, Thread: 0, Kind: trace.Write, Region: trace.NoRegion})
		if _, ok := d.Process(trace.Access{Time: 2, Addr: 0x2000, Size: 8, Thread: 1, Kind: trace.Read, Region: trace.NoRegion}); !ok {
			t.Fatalf("granularity %d lost a true dependence", bits)
		}
	}
}
