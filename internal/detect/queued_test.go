package detect

import (
	"math/rand"
	"testing"

	"commprof/internal/trace"
)

func genAccesses(n int, seed int64) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = trace.Access{
			Time:   uint64(i),
			Addr:   uint64(0x1000 + 8*rng.Intn(512)),
			Size:   8,
			Thread: int32(rng.Intn(8)),
			Kind:   trace.Kind(rng.Intn(2)),
			Region: trace.NoRegion,
		}
	}
	return out
}

func TestQueuedMatchesInline(t *testing.T) {
	stream := genAccesses(20000, 9)

	inline := newDetector(t, 8, nil)
	inline.ProcessBatch(stream)

	qd := newDetector(t, 8, nil)
	q := NewClockedQueue(qd, 3)
	for _, a := range stream {
		q.Process(a)
	}
	q.Close()

	// Ordered background analysis must produce the identical matrix.
	if !inline.Global().Equal(qd.Global()) {
		t.Fatal("queued analysis diverged from inline")
	}
	if qd.Stats().Processed != uint64(len(stream)) {
		t.Fatalf("processed %d of %d", qd.Stats().Processed, len(stream))
	}
}

func TestQueuedFastAnalyserStaysSmall(t *testing.T) {
	// The burst problem is about rate mismatch, not about queueing as such.
	// On the virtual clock the same producer — 16 accesses back to back, then
	// 48 ticks of computation — meets an analyser that keeps pace within the
	// burst (queue never deeper than the access in flight), one that falls
	// behind in the burst but catches up in the pause (bounded by the burst),
	// and one slower than the producer's average rate (grows with the
	// stream). Every peak is exact: nothing here asks the scheduler anything.
	stream := genAccesses(20000, 11)
	inline := newDetector(t, 8, nil)
	inline.ProcessBatch(stream)

	const burst, pause = 16, 48
	peakAt := func(cost int) int {
		qd := newDetector(t, 8, nil)
		q := NewClockedQueue(qd, cost)
		for i, a := range stream {
			q.Process(a)
			if (i+1)%burst == 0 {
				q.Compute(pause)
			}
		}
		q.Close()
		if !inline.Global().Equal(qd.Global()) {
			t.Fatalf("cost %d: clocked queue diverged from inline analysis", cost)
		}
		if qd.Stats().Processed != uint64(len(stream)) {
			t.Fatalf("cost %d: processed %d of %d", cost, qd.Stats().Processed, len(stream))
		}
		if q.PeakQueueBytes() != uint64(q.PeakQueueLength())*queuedRecordBytes {
			t.Fatalf("cost %d: PeakQueueBytes inconsistent", cost)
		}
		return q.PeakQueueLength()
	}
	if peak := peakAt(1); peak != 1 {
		t.Errorf("full-speed analyser: peak %d, want 1", peak)
	}
	// 4 ticks per access: the 15 ticks before the burst's last access retire
	// 3, the 48-tick pause retires the rest.
	if peak := peakAt(4); peak != burst-(burst-1)/4 {
		t.Errorf("analyser at 1/4 burst rate: peak %d, want %d", peak, burst-(burst-1)/4)
	}
	// 8 ticks per access against one access per 4 ticks on average: half the
	// stream is still queued when the producer finishes.
	if peak := peakAt(8); peak < len(stream)/2 {
		t.Errorf("analyser slower than the producer: peak %d, want at least %d", peak, len(stream)/2)
	}
}

func TestQueuedCloseIdempotentDrain(t *testing.T) {
	qd := newDetector(t, 2, nil)
	q := NewClockedQueue(qd, 100) // nothing is analysed before Close
	q.Process(trace.Access{Time: 1, Addr: 8, Size: 8, Thread: 0, Kind: trace.Write, Region: trace.NoRegion})
	q.Process(trace.Access{Time: 2, Addr: 8, Size: 8, Thread: 1, Kind: trace.Read, Region: trace.NoRegion})
	if got := qd.Stats().Processed; got != 0 {
		t.Fatalf("analyser at cost 100 processed %d accesses in 2 ticks", got)
	}
	q.Close()
	q.Close()
	if st := qd.Stats(); st.Detected != 1 || st.Processed != 2 {
		t.Fatalf("after Close: detected %d, processed %d; want 1 and 2", st.Detected, st.Processed)
	}
}
