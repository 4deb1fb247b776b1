package baselines

import (
	"testing"

	"commprof/internal/trace"
)

func access(addr uint64, tid int32, kind trace.Kind) trace.Access {
	return trace.Access{Addr: addr, Size: 8, Thread: tid, Kind: kind, Region: trace.NoRegion}
}

func TestShadowMemoryGrowsWithFootprint(t *testing.T) {
	s := NewMemcheck()
	s.ProcessAccess(access(0x1000, 0, trace.Write))
	m1 := s.Result().MemoryBytes
	// Touch 100 new pages.
	for i := uint64(1); i <= 100; i++ {
		s.ProcessAccess(access(0x1000+i*pageSize, 0, trace.Write))
	}
	m2 := s.Result().MemoryBytes
	if m2 <= m1 {
		t.Fatalf("shadow memory did not grow: %d -> %d", m1, m2)
	}
	wantGrowth := uint64(float64(100*pageSize) * 1.4)
	if got := m2 - m1; got != wantGrowth {
		t.Fatalf("growth = %d, want %d", got, wantGrowth)
	}
}

func TestShadowMemoryRepeatedTouchesFree(t *testing.T) {
	s := NewHelgrind()
	for i := 0; i < 10000; i++ {
		s.ProcessAccess(access(0x2000, int32(i%8), trace.Read))
	}
	r := s.Result()
	if r.Events != 10000 {
		t.Fatalf("events = %d", r.Events)
	}
	// One page only.
	if r.MemoryBytes != s.baseOverhead+uint64(4*pageSize) {
		t.Fatalf("memory = %d", r.MemoryBytes)
	}
}

func TestShadowScalesOrdered(t *testing.T) {
	mk, hg, hgp := NewMemcheck(), NewHelgrind(), NewHelgrindPlus()
	for i := uint64(0); i < 50; i++ {
		a := access(0x10000+i*pageSize, 0, trace.Write)
		mk.ProcessAccess(a)
		hg.ProcessAccess(a)
		hgp.ProcessAccess(a)
	}
	m1 := mk.Result().MemoryBytes - mk.baseOverhead
	m2 := hg.Result().MemoryBytes - hg.baseOverhead
	m3 := hgp.Result().MemoryBytes - hgp.baseOverhead
	if !(m1 < m2 && m2 < m3) {
		t.Fatalf("shadow scales not ordered: %d %d %d", m1, m2, m3)
	}
}

func TestShadowPageStraddle(t *testing.T) {
	s := NewMemcheck()
	// An 8-byte access straddling a page boundary touches two pages.
	s.ProcessAccess(access(pageSize*10-4, 0, trace.Write))
	if len(s.pages) != 2 {
		t.Fatalf("straddling access touched %d pages, want 2", len(s.pages))
	}
}

func TestIPMLogGrowsPerEvent(t *testing.T) {
	p := NewIPM()
	for i := 0; i < 1000; i++ {
		p.ProcessAccess(access(uint64(0x100+i*8), int32(i%4), trace.Read))
	}
	r := p.Result()
	if r.OutputBytes != 1000*recordBytes {
		t.Fatalf("output = %d, want %d", r.OutputBytes, 1000*recordBytes)
	}
	if r.MemoryBytes < r.OutputBytes {
		t.Fatal("memory must include the log")
	}
}

func TestSD3CompressesStrides(t *testing.T) {
	p := NewSD3()
	// One perfectly strided stream: 100k accesses, stride 8 — must stay in
	// a single live FSM with no closed triples or points.
	for i := uint64(0); i < 100000; i++ {
		p.ProcessAccess(access(0x1000+i*8, 0, trace.Read))
	}
	r := p.Result()
	if p.closed != 0 || p.points != 0 {
		t.Fatalf("strided stream fragmented: closed=%d points=%d", p.closed, p.points)
	}
	if r.MemoryBytes > 1024 {
		t.Fatalf("strided stream used %d bytes; compression failed", r.MemoryBytes)
	}
}

func TestSD3IrregularCostsMore(t *testing.T) {
	strided, irregular := NewSD3(), NewSD3()
	rng := uint64(0x12345)
	for i := uint64(0); i < 10000; i++ {
		strided.ProcessAccess(access(0x1000+i*8, 0, trace.Read))
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		irregular.ProcessAccess(access(0x1000+(rng%65536)*8, 0, trace.Read))
	}
	if irregular.Result().MemoryBytes <= strided.Result().MemoryBytes {
		t.Fatal("irregular stream should cost more than strided")
	}
}

func TestSD3PerThreadStreams(t *testing.T) {
	p := NewSD3()
	// Two threads interleaving their own strided streams must not break
	// each other's FSM.
	for i := uint64(0); i < 1000; i++ {
		p.ProcessAccess(access(0x1000+i*8, 0, trace.Read))
		p.ProcessAccess(access(0x900000+i*16, 1, trace.Read))
	}
	if p.closed != 0 || p.points != 0 {
		t.Fatalf("per-thread streams fragmented: closed=%d points=%d", p.closed, p.points)
	}
	if len(p.streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(p.streams))
	}
}

func TestPairwiseFindsDeps(t *testing.T) {
	p := NewPairwise(0)
	p.ProcessAccess(access(0x10, 0, trace.Write))
	p.ProcessAccess(access(0x10, 1, trace.Read)) // dep
	p.ProcessAccess(access(0x10, 0, trace.Read)) // self, no dep
	p.ProcessAccess(access(0x18, 1, trace.Read)) // never written, no dep
	if p.deps != 1 {
		t.Fatalf("deps = %d, want 1", p.deps)
	}
}

func TestPairwiseMemoryGrowsWithAccesses(t *testing.T) {
	p := NewPairwise(0)
	for i := 0; i < 1000; i++ {
		p.ProcessAccess(access(0x10, int32(i%4), trace.Read))
	}
	r := p.Result()
	if r.MemoryBytes < 8000 {
		t.Fatalf("pairwise memory = %d, expected O(accesses)", r.MemoryBytes)
	}
}

func TestPairwiseCap(t *testing.T) {
	p := NewPairwise(10)
	for i := 0; i < 100; i++ {
		p.ProcessAccess(access(0x10, 0, trace.Write))
	}
	if got := len(p.history[0x10]); got != 10 {
		t.Fatalf("history len = %d, want cap 10", got)
	}
}

func TestNewByName(t *testing.T) {
	for _, n := range []string{"memcheck", "helgrind", "helgrind+", "ipm", "sd3", "pairwise"} {
		p, err := NewByName(n)
		if err != nil || p.Result().Name != n {
			t.Errorf("NewByName(%s): %v %v", n, p, err)
		}
	}
	if _, err := NewByName("gprof"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows, want 4", len(rows))
	}
	if rows[0].Name != "DiscoPoP" || rows[0].RealTime != "Yes" || rows[0].FPResilience != "Yes" {
		t.Fatalf("DiscoPoP row wrong: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Name == "" || r.MemoryOverhead == "" || r.Accuracy == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
	}
}

func BenchmarkShadowProcess(b *testing.B) {
	s := NewHelgrind()
	for i := 0; i < b.N; i++ {
		s.ProcessAccess(access(uint64(i%100000)*8, int32(i&7), trace.Read))
	}
}

func BenchmarkSD3Process(b *testing.B) {
	s := NewSD3()
	for i := 0; i < b.N; i++ {
		s.ProcessAccess(access(uint64(i)*8, int32(i&7), trace.Read))
	}
}
