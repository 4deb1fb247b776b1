package comm

import (
	"math/rand"
	"testing"
)

// windowEvent is one synthetic communication event for the property tests.
type windowEvent struct {
	time   uint64
	region int32
	src    int32
	dst    int32
	bytes  uint64
}

func randomEvents(rng *rand.Rand, n, threads, regions int, maxTime uint64) []windowEvent {
	evs := make([]windowEvent, n)
	for i := range evs {
		region := int32(rng.Intn(regions + 1)) // regions means NoRegion
		if int(region) == regions {
			region = -1
		}
		src := int32(rng.Intn(threads))
		dst := int32(rng.Intn(threads))
		evs[i] = windowEvent{
			time:   rng.Uint64() % maxTime,
			region: region,
			src:    src,
			dst:    dst,
			bytes:  uint64(1 + rng.Intn(64)),
		}
	}
	return evs
}

func observeAll(t *testing.T, threads int, size uint64, evs []windowEvent) *WindowSet {
	t.Helper()
	ws, err := NewWindowSet(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		ws.Observe(ev.time, ev.region, ev.src, ev.dst, ev.bytes)
	}
	return ws
}

func TestWindowSetBuckets(t *testing.T) {
	ws, err := NewWindowSet(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	ws.Observe(5, 0, 0, 1, 8)
	ws.Observe(99, -1, 1, 2, 4)
	ws.Observe(100, 1, 2, 3, 2)
	wins := ws.Sorted()
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	if wins[0].Start != 0 || wins[1].Start != 100 {
		t.Fatalf("window starts %d,%d, want 0,100", wins[0].Start, wins[1].Start)
	}
	if got := wins[0].Global.Total(); got != 12 {
		t.Fatalf("window 0 total %d, want 12", got)
	}
	if got := wins[0].Regions[0].Total(); got != 8 {
		t.Fatalf("window 0 region 0 total %d, want 8", got)
	}
	if _, ok := wins[0].Regions[-1]; ok {
		t.Fatal("NoRegion event must not create a region sub-matrix")
	}
}

func TestWindowSetRejectsBadConfig(t *testing.T) {
	if _, err := NewWindowSet(0, 10); err == nil {
		t.Fatal("want error for zero threads")
	}
	if _, err := NewWindowSet(4, 0); err == nil {
		t.Fatal("want error for zero window size")
	}
}

// TestWindowMergeCommutative is the merge-soundness property test: splitting
// one event stream into random partitions (as address-hash sharding does),
// accumulating each partition into its own WindowSet, and draining the
// partials through a closer in any order and grouping yields exactly the set
// a single observer builds. This is the algebraic fact that lets shard
// workers fill windows without synchronization.
func TestWindowMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(0x71d0))
	const threads, size = 8, 500
	for trial := 0; trial < 30; trial++ {
		evs := randomEvents(rng, 200+rng.Intn(800), threads, 6, 5000)
		want := observeAll(t, threads, size, evs)

		parts := 1 + rng.Intn(6)
		sets := make([]*WindowSet, parts)
		for i := range sets {
			ws, err := NewWindowSet(threads, size)
			if err != nil {
				t.Fatal(err)
			}
			sets[i] = ws
		}
		for _, ev := range evs {
			sets[rng.Intn(parts)].Observe(ev.time, ev.region, ev.src, ev.dst, ev.bytes)
		}

		// Drain the partials in a random order, occasionally folding one into
		// another first to exercise associativity (merge a partial into a
		// partial, then the rest).
		order := rng.Perm(parts)
		if parts >= 3 && rng.Intn(2) == 0 {
			for _, w := range sets[order[1]].Drain(^uint64(0)) {
				sets[order[0]].MergeWindow(w)
			}
			order = append(order[:1], order[2:]...)
		}
		sources := make([]*WindowSet, len(order))
		for i, o := range order {
			sources[i] = sets[o]
		}
		c, err := NewWindowCloser(threads, size)
		if err != nil {
			t.Fatal(err)
		}
		c.Advance(^uint64(0), sources, nil)

		if !c.Done().Equal(want) {
			t.Fatalf("trial %d: merged set differs from single-observer set (parts=%d)", trial, parts)
		}
	}
}

// TestWindowCloserEmitsInOrderOnce drives a closer with an advancing
// frontier and checks each window is emitted exactly once, in start order,
// only when wholly below the frontier.
func TestWindowCloserEmitsInOrderOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc105e))
	const threads, size = 4, 100
	evs := randomEvents(rng, 500, threads, 3, 2000)
	src := observeAll(t, threads, size, evs)
	want := observeAll(t, threads, size, evs) // reference copy

	c, err := NewWindowCloser(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []uint64
	onClose := func(w *Window, end uint64) {
		if end != w.Start+size {
			t.Fatalf("end %d for start %d", end, w.Start)
		}
		emitted = append(emitted, w.Start)
	}
	for frontier := uint64(0); frontier <= 2100; frontier += 130 {
		c.Advance(frontier, []*WindowSet{src}, onClose)
	}
	c.Advance(^uint64(0), []*WindowSet{src}, onClose)

	ref := want.Sorted()
	if len(emitted) != len(ref) {
		t.Fatalf("emitted %d windows, want %d", len(emitted), len(ref))
	}
	for i, start := range emitted {
		if start != ref[i].Start {
			t.Fatalf("emission %d: start %d, want %d", i, start, ref[i].Start)
		}
	}
	if !c.Done().Equal(want) {
		t.Fatal("closer done-set differs from reference")
	}
	if c.Late() != 0 {
		t.Fatalf("late windows %d on a single time-ordered drain, want 0", c.Late())
	}
	if c.Closed() != uint64(len(ref)) {
		t.Fatalf("Closed() %d, want %d", c.Closed(), len(ref))
	}
}

// TestWindowCloserCountsLate checks a partial window drained after its
// window was emitted is merged but not re-emitted.
func TestWindowCloserCountsLate(t *testing.T) {
	const threads, size = 2, 100
	early, err := NewWindowSet(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	early.Observe(10, -1, 0, 1, 4)
	c, err := NewWindowCloser(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	count := func(*Window, uint64) { n++ }
	if got := c.Advance(500, []*WindowSet{early}, count); got != 1 || n != 1 {
		t.Fatalf("first advance emitted %d/%d, want 1", got, n)
	}
	// A late partial for the already-emitted window.
	late, err := NewWindowSet(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	late.Observe(20, -1, 1, 0, 8)
	if got := c.Advance(600, []*WindowSet{late}, count); got != 0 || n != 1 {
		t.Fatalf("late advance emitted %d/%d, want 0", got, n)
	}
	if c.Late() != 1 {
		t.Fatalf("Late() %d, want 1", c.Late())
	}
	if got := c.Done().Sorted()[0].Global.Total(); got != 12 {
		t.Fatalf("late bytes not merged: total %d, want 12", got)
	}
}
