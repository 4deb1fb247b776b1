package accuracy

import (
	"math"
	"strings"
	"testing"

	"commprof/internal/sig"
)

func newMonitor(t *testing.T, opts Options) *Monitor {
	t.Helper()
	if opts.Threads == 0 {
		opts.Threads = 4
	}
	if opts.TargetFPR == 0 {
		opts.TargetFPR = DefaultTargetFPR
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"zero threads", Options{Threads: 0, TargetFPR: 0.05}},
		{"negative threads", Options{Threads: -1, TargetFPR: 0.05}},
		{"bits too wide", Options{Threads: 4, TargetFPR: 0.05, SampleBits: MaxSampleBits + 1}},
		{"zero target", Options{Threads: 4, TargetFPR: 0}},
		{"target one", Options{Threads: 4, TargetFPR: 1}},
		{"target above one", Options{Threads: 4, TargetFPR: 1.5}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.opts)
		}
	}
	if _, err := New(Options{Threads: 4, TargetFPR: 0.05, SampleBits: MaxSampleBits}); err != nil {
		t.Errorf("max SampleBits rejected: %v", err)
	}
}

func TestSampledBitsZeroSelectsEverything(t *testing.T) {
	m := newMonitor(t, Options{SampleBits: 0})
	for addr := uint64(0); addr < 4096; addr++ {
		if !m.Sampled(addr) {
			t.Fatalf("SampleBits 0 skipped granule %#x", addr)
		}
	}
	if f := EstimateFrom(m.Stats(), 0, DefaultTargetFPR).SampleFraction; f != 1 {
		t.Errorf("SampleFraction = %v, want 1", f)
	}
}

// TestSampledFraction checks that the hash selector is deterministic and
// picks roughly 1/2^k of a dense granule range.
func TestSampledFraction(t *testing.T) {
	const n = 1 << 18
	for _, bits := range []uint{1, 3, 6} {
		m := newMonitor(t, Options{SampleBits: bits})
		var hits int
		for addr := uint64(0); addr < n; addr++ {
			if m.Sampled(addr) {
				if !m.Sampled(addr) {
					t.Fatalf("selector not deterministic at %#x", addr)
				}
				hits++
			}
		}
		want := float64(n) / float64(uint64(1)<<bits)
		if got := float64(hits); math.Abs(got-want) > 0.15*want {
			t.Errorf("bits=%d: %d granules sampled of %d, want ≈%.0f", bits, hits, n, want)
		}
		if f := EstimateFrom(m.Stats(), bits, DefaultTargetFPR).SampleFraction; f != 1/float64(uint64(1)<<bits) {
			t.Errorf("bits=%d: SampleFraction = %v", bits, f)
		}
	}
}

// TestSeedMovesSlice checks that distinct seeds shadow distinct slices (the
// cross-validation tests rely on this to average over sampling noise).
func TestSeedMovesSlice(t *testing.T) {
	a := newMonitor(t, Options{SampleBits: 4, Seed: 1})
	b := newMonitor(t, Options{SampleBits: 4, Seed: 2})
	same := true
	for addr := uint64(0); addr < 1<<12; addr++ {
		if a.Sampled(addr) != b.Sampled(addr) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 selected identical slices")
	}
}

// TestVerdictPairing drives the monitor by hand through the four verdict
// outcomes: confirmed event, false positive (phantom and mis-attributed),
// and missed event.
func TestVerdictPairing(t *testing.T) {
	m := newMonitor(t, Options{Threads: 4, SampleBits: 0})

	// Writer 1 stores, reader 0 loads: production agrees → confirmed.
	m.ObserveWrite(0x100, 1)
	m.ObserveRead(0x100, 0, true, 1)

	// No writer in the shadow, production still claims an event → phantom
	// false positive.
	m.ObserveRead(0x200, 0, true, 3)

	// Writer 2 stores, production attributes the read to writer 3 →
	// mis-attribution false positive.
	m.ObserveWrite(0x300, 2)
	m.ObserveRead(0x300, 0, true, 3)

	// Writer 1 stores, production reports nothing → missed event.
	m.ObserveWrite(0x400, 1)
	m.ObserveRead(0x400, 0, false, sig.NoWriter)

	// Re-read of 0x100 by the same reader: not first → no exact event, and
	// production (correctly) silent → no counter moves.
	m.ObserveRead(0x100, 0, false, sig.NoWriter)

	// Own-write read: writer == tid → not an exact event.
	m.ObserveWrite(0x500, 2)
	m.ObserveRead(0x500, 2, false, sig.NoWriter)

	st := m.Stats()
	want := Stats{
		SampledAccesses: 10, SampledReads: 6, SampledWrites: 4,
		SampledGranules: 5,
		SigEvents:       3, Confirmed: 1, FalsePositives: 2, MissedEvents: 1,
		EventGranules: 3, ClusterEvSq: 3, ClusterFPSq: 2, ClusterEvFP: 2,
	}
	// The shadow tracks granules it has seen reads for too.
	want.SampledGranules = uint64(m.shadow.Entries())
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	est := EstimateFrom(m.Stats(), 0, DefaultTargetFPR)
	if got, want := est.EstimatedFPR, 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("EstimatedFPR = %v, want %v", got, want)
	}
	if est.FPRLow >= est.EstimatedFPR || est.FPRHigh <= est.EstimatedFPR {
		t.Errorf("CI [%v,%v] does not bracket %v", est.FPRLow, est.FPRHigh, est.EstimatedFPR)
	}
}

// TestUnsampledGranulesIgnored checks that accesses outside the slice touch
// neither the counters nor the shadow.
func TestUnsampledGranulesIgnored(t *testing.T) {
	m := newMonitor(t, Options{SampleBits: 8})
	var out uint64
	for addr := uint64(0); addr < 1<<12; addr++ {
		if !m.Sampled(addr) {
			out = addr
			break
		}
	}
	m.ObserveWrite(out, 1)
	m.ObserveRead(out, 0, true, 1)
	if st := m.Stats(); st.SampledAccesses != 0 || st.SigEvents != 0 || st.SampledGranules != 0 {
		t.Errorf("unsampled granule leaked into stats: %+v", st)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SampledAccesses: 10, SampledReads: 6, SampledWrites: 4, SampledGranules: 3, SigEvents: 5, Confirmed: 4, FalsePositives: 1, MissedEvents: 2}
	b := Stats{SampledAccesses: 1, SampledReads: 1, SampledGranules: 1, SigEvents: 1, FalsePositives: 1}
	got := a.Add(b)
	want := Stats{SampledAccesses: 11, SampledReads: 7, SampledWrites: 4, SampledGranules: 4, SigEvents: 6, Confirmed: 4, FalsePositives: 2, MissedEvents: 2}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

func TestWilson(t *testing.T) {
	if lo, hi := Wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%v,%v], want [0,1]", lo, hi)
	}
	// Known value: 5/10 at z=1.96 → approximately [0.2366, 0.7634].
	lo, hi := Wilson(5, 10, 1.96)
	if math.Abs(lo-0.2366) > 0.001 || math.Abs(hi-0.7634) > 0.001 {
		t.Errorf("Wilson(5,10) = [%v,%v], want ≈[0.2366,0.7634]", lo, hi)
	}
	// Extremes stay inside [0,1] and tighten with more trials.
	if lo, hi := Wilson(0, 100, 1.96); lo != 0 || hi > 0.05 {
		t.Errorf("Wilson(0,100) = [%v,%v]", lo, hi)
	}
	if lo, hi := Wilson(100, 100, 1.96); hi < 1-1e-9 || lo < 0.95 {
		t.Errorf("Wilson(100,100) = [%v,%v]", lo, hi)
	}
	_, wide := Wilson(5, 10, 1.96)
	_, narrow := Wilson(500, 1000, 1.96)
	if narrow >= wide {
		t.Errorf("interval did not tighten: hi(5/10)=%v hi(500/1000)=%v", wide, narrow)
	}
}

func TestEstimateFrom(t *testing.T) {
	st := Stats{SampledGranules: 100, SigEvents: 200, FalsePositives: 20}
	est := EstimateFrom(st, 3, 0.05)
	if est.SampleFraction != 0.125 {
		t.Errorf("SampleFraction = %v", est.SampleFraction)
	}
	if est.EstimatedFPR != 0.1 {
		t.Errorf("EstimatedFPR = %v", est.EstimatedFPR)
	}
	if est.EstimatedWorkingSet != 800 {
		t.Errorf("EstimatedWorkingSet = %d, want 800", est.EstimatedWorkingSet)
	}
	if est.TargetFPR != 0.05 {
		t.Errorf("TargetFPR = %v", est.TargetFPR)
	}
	empty := EstimateFrom(Stats{}, 0, 0.05)
	if empty.EstimatedFPR != 0 || empty.FPRLow != 0 || empty.FPRHigh != 1 {
		t.Errorf("empty estimate = %+v", empty)
	}
}

func TestRecommend(t *testing.T) {
	// Measured 20% against a 5% target from 1024 slots: scale ×4, next power
	// of two = 4096, priced at the run's own 6 B/slot.
	est := EstimateFrom(Stats{SigEvents: 1000, FalsePositives: 200}, 0, 0.05)
	rec := Recommend(est, 1024, 1024*6)
	want := Recommendation{CurrentSlots: 1024, CurrentBytes: 1024 * 6, RecommendedSlots: 4096, RecommendedBytes: 4096 * 6}
	if rec != want {
		t.Errorf("rec = %+v, want %+v", rec, want)
	}
	// A slot count that is no power of two, and bytes that are no multiple of
	// it (sharded partitions round their slots up): linear, rounded up.
	if rec := Recommend(est, 1000, 12003); rec.RecommendedSlots != 4096 || rec.RecommendedBytes != 49165 {
		t.Errorf("non-power-of-two run: %+v, want 4096 slots at 49165 B", rec)
	}

	// Already under target: keep the current size and price.
	ok := EstimateFrom(Stats{SigEvents: 1000, FalsePositives: 10}, 0, 0.05)
	if rec := Recommend(ok, 1024, 1024*6); rec.RecommendedSlots != 1024 || rec.RecommendedBytes != rec.CurrentBytes {
		t.Errorf("under-target run resized: %+v", rec)
	}

	// No events: keep the current size.
	if rec := Recommend(EstimateFrom(Stats{}, 0, 0.05), 1024, 1024*6); rec.RecommendedSlots != 1024 {
		t.Errorf("empty run resized: %+v", rec)
	}

	// Degenerate estimate: the power-of-two search caps instead of
	// overflowing.
	bad := EstimateFrom(Stats{SigEvents: 1000, FalsePositives: 999}, 0, 0.05)
	if rec := Recommend(bad, 1<<39, 12<<39); rec.RecommendedSlots > maxRecommendSlots {
		t.Errorf("cap breached: %d", rec.RecommendedSlots)
	}
}

func TestAlarmFPRTrip(t *testing.T) {
	var a Alarm
	// Point estimate above target but a wide CI: no alarm.
	a.Evaluate(EstimateFrom(Stats{SigEvents: 4, FalsePositives: 1}, 0, 0.05))
	if _, ok := a.Message(); ok {
		t.Fatal("alarm tripped on an uncertain estimate")
	}
	// Overwhelming evidence: lower bound clears the target.
	a.Evaluate(EstimateFrom(Stats{SigEvents: 10000, FalsePositives: 5000}, 0, 0.05))
	msg, ok := a.Message()
	if !ok || !strings.Contains(msg, "exceeds target") {
		t.Fatalf("alarm missing: %q %v", msg, ok)
	}
	// Warn-once: a later, different estimate does not overwrite.
	a.Evaluate(EstimateFrom(Stats{SigEvents: 10000, FalsePositives: 9000}, 0, 0.05))
	if msg2, _ := a.Message(); msg2 != msg {
		t.Errorf("alarm rewrote itself: %q → %q", msg, msg2)
	}
}

// TestMonitorAlarmAndFootprint drives the alarm from a monitor's own estimate:
// phantom events the exact shadow rejects push the FPR's lower bound over the
// target.
func TestMonitorAlarmAndFootprint(t *testing.T) {
	m := newMonitor(t, Options{Threads: 4, SampleBits: 0})
	var a Alarm
	a.Evaluate(EstimateFrom(m.Stats(), 0, DefaultTargetFPR))
	if _, ok := a.Message(); ok {
		t.Fatal("fresh monitor alarmed")
	}
	if m.ShadowFootprintBytes() != 0 {
		t.Error("empty shadow reports a non-zero footprint")
	}
	for addr := uint64(0); addr < 200; addr++ {
		m.ObserveRead(addr, 0, true, 1) // no writer in the shadow: a false positive
	}
	a.Evaluate(EstimateFrom(m.Stats(), 0, DefaultTargetFPR))
	if msg, ok := a.Message(); !ok || msg == "" {
		t.Fatal("FPR alarm did not latch on the monitor's estimate")
	}
	if m.ShadowFootprintBytes() == 0 {
		t.Error("shadow footprint zero after an observe")
	}
}
