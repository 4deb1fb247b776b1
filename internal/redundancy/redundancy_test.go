package redundancy

import (
	"testing"
)

func mustNew(t *testing.T, bits uint, threads int) *Cache {
	t.Helper()
	c, err := New(bits, threads)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		bits    uint
		threads int
	}{
		{0, 4}, {MaxBits + 1, 4}, {8, 0}, {8, -1}, {8, maxThread + 1},
	} {
		if _, err := New(tc.bits, tc.threads); err == nil {
			t.Errorf("New(%d, %d): expected error", tc.bits, tc.threads)
		}
	}
	if _, err := New(1, 1); err != nil {
		t.Errorf("New(1,1): %v", err)
	}
	// The upper edge: 2^MaxBits entries, 192 MiB, which a small host can
	// allocate (2^30 was 12 GiB).
	if c, err := New(MaxBits, maxThread); err != nil {
		t.Errorf("New(MaxBits,maxThread): %v", err)
	} else if len(c.tags) != 1<<MaxBits || c.Bits() != MaxBits {
		t.Errorf("New(MaxBits,maxThread): %d entries, %d bits", len(c.tags), c.Bits())
	}
}

// TestSkipRules exercises the three redundant shapes and the shapes that must
// reach the backend.
func TestSkipRules(t *testing.T) {
	c := mustNew(t, 8, 4)
	const g = 0xdeadbeef

	// Cold: first read misses.
	if c.Redundant(g, 0, false) {
		t.Fatal("first read must miss")
	}
	// Rule 1: read after own read skips.
	if !c.Redundant(g, 0, false) {
		t.Fatal("read after own read must skip")
	}
	// Cross-thread read must reach the backend (it may be a first read).
	if c.Redundant(g, 1, false) {
		t.Fatal("cross-thread read must miss")
	}
	// Write over a resident read must reach the backend (new write epoch).
	if c.Redundant(g, 1, true) {
		t.Fatal("write over resident read must miss")
	}
	// Rule 2: write after own write skips.
	if !c.Redundant(g, 1, true) {
		t.Fatal("write after own write must skip")
	}
	// Rule 3: read after own write skips (writer==reader is never
	// communication), and the entry stays a write so the next same-thread
	// write still skips too.
	if !c.Redundant(g, 1, false) {
		t.Fatal("read after own write must skip")
	}
	if !c.Redundant(g, 1, true) {
		t.Fatal("write after own write interleaved with own reads must still skip")
	}
	// Cross-thread write over a resident write must reach the backend.
	if c.Redundant(g, 2, true) {
		t.Fatal("cross-thread write must miss")
	}
	// And the displaced thread's next read must now miss (invalidation).
	if c.Redundant(g, 1, false) {
		t.Fatal("read after cross-thread write must miss")
	}

	st := c.Stats()
	if st.Hits != 4 || st.Misses != 5 {
		t.Fatalf("stats = %+v, want 4 hits / 5 misses", st)
	}
	if st.HitRate() < 0.44 || st.HitRate() > 0.45 {
		t.Fatalf("hit rate %v, want 4/9", st.HitRate())
	}
}

// collidingGranule finds a granule != g mapping to the same cache line.
func collidingGranule(c *Cache, g uint64) uint64 {
	target := (g * fibMix) >> c.shift
	for o := g + 1; ; o++ {
		if (o*fibMix)>>c.shift == target {
			return o
		}
	}
}

// TestIndexCollisionEvicts pins the direct-mapped contract: a colliding
// granule displaces the resident entry (counted as an eviction), and the
// displaced granule's next access misses — losing only a skip opportunity.
func TestIndexCollisionEvicts(t *testing.T) {
	c := mustNew(t, 2, 4)
	const g = 100
	o := collidingGranule(c, g)

	c.Redundant(g, 0, false)
	if !c.Redundant(g, 0, false) {
		t.Fatal("warm read must skip")
	}
	if c.Redundant(o, 0, false) {
		t.Fatal("colliding granule must miss")
	}
	if c.Redundant(g, 0, false) {
		t.Fatal("evicted granule must miss even for the same thread and kind")
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (g evicted by o, o evicted back by g)", st.Evictions)
	}
}

func TestResetInvalidates(t *testing.T) {
	c := mustNew(t, 4, 2)
	c.Redundant(7, 1, true)
	if !c.Redundant(7, 1, true) {
		t.Fatal("warm write must skip")
	}
	c.Reset()
	if c.Redundant(7, 1, true) {
		t.Fatal("post-Reset write must miss")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("Reset did not clear counters: %+v", st)
	}
}

// TestGranuleZeroAndThreadZero guards the packed-word encoding edge: granule 0
// and thread 0 are both valid and distinguishable from an empty line.
func TestGranuleZeroAndThreadZero(t *testing.T) {
	c := mustNew(t, 4, 2)
	if c.Redundant(0, 0, false) {
		t.Fatal("cold read of granule 0 by thread 0 must miss")
	}
	if !c.Redundant(0, 0, false) {
		t.Fatal("warm read of granule 0 by thread 0 must skip")
	}
	if c.Redundant(0, 1, false) {
		t.Fatal("granule 0 cross-thread read must miss")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Bits: 10, Hits: 3, Misses: 1, Evictions: 1}
	b := Stats{Bits: 10, Hits: 1, Misses: 3}
	sum := Stats{}.Add(a).Add(b)
	if sum.Bits != 10 || sum.Hits != 4 || sum.Misses != 4 || sum.Evictions != 1 {
		t.Fatalf("merged stats = %+v", sum)
	}
	if sum.HitRate() != 0.5 || sum.Lookups() != 8 {
		t.Fatalf("merged rate/lookups = %v/%d", sum.HitRate(), sum.Lookups())
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats must report zero hit rate")
	}
}

func BenchmarkRedundantHit(b *testing.B) {
	c, _ := New(12, 32)
	c.Redundant(42, 3, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Redundant(42, 3, false)
	}
}

func BenchmarkRedundantMissStream(b *testing.B) {
	c, _ := New(12, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Redundant(uint64(i), 3, false)
	}
}
