// Package accuracy implements the online signature-accuracy monitor: a
// shadow-sampling estimator that turns the paper's offline false-positive
// sweep (§V-A3, the 85.8 / 22.0 / 8.4 / 2.1 % averages) into a live,
// always-on observable of every profiling run.
//
// The idea: for a deterministically hash-selected 1/2^k slice of the granule
// address space, run an exact collision-free shadow detector (sig.Perfect)
// next to the production asymmetric signature and compare their
// communicating-access verdicts access by access. A bounded-signature event
// whose shadow verdict disagrees (no dependence, or a different writer) is a
// confirmed false positive; the ratio of false positives to signature events
// in the sampled slice estimates the run's signature FPR, with a Wilson
// score interval quantifying the sampling noise.
//
// Sampling by granule — not by access — is what makes the estimate sound:
// the communicating-access rule (Fig. 2) for a granule depends only on the
// temporally ordered history of that granule, so a granule that is sampled
// has its *entire* read/write history shadowed and every production verdict
// in the slice is paired with an exact verdict computed from identical
// state. This is the same argument that makes address-hash shard routing
// exact (internal/pipeline) and the redundancy fast path sound
// (internal/redundancy): slicing the address space never cuts a granule's
// history. An access-sampled shadow, by contrast, would miss writes and
// mis-resolve last-writer attribution inside the sample.
//
// Interaction with the redundancy fast path: accesses the redundancy cache
// skips reach neither the production backend nor the shadow, so verdict
// pairs stay aligned. The skip rules are provable no-ops under the exact
// rule (see internal/redundancy), hence skipping them from the shadow loses
// no events; the one observable difference — a skipped read-over-own-write
// is not recorded in the shadow's reader set — is the same unobservable
// omission the redundancy package already argues for the production
// backend, and it holds a fortiori on the collision-free shadow.
//
// The package also carries the advisor: from the measured FPR and the target
// FPR it recommends a signature size (collision probability at small load
// factors is linear in working-set/slots, so slots scale by the
// measured-to-target ratio) and prices it at the run's own bytes per slot. A
// warn-once alarm latches when the estimate's Wilson lower bound crosses the
// target.
package accuracy

import (
	"fmt"
	"math"
	"sync/atomic"

	"commprof/internal/obs"
	"commprof/internal/sig"
)

// DefaultTargetFPR is the advisor/alarm target used when a caller enables
// the monitor without choosing one: 5%, between the paper's 8.4% (1e7
// slots) and 2.1% (1e8 slots) operating points.
const DefaultTargetFPR = 0.05

// MaxSampleBits bounds the sample slice at 1/2^16 of the granule space;
// thinner slices see too few events to estimate anything.
const MaxSampleBits = 16

// sampleMix is the multiplicative-hash constant of the sample selector (an
// odd 64-bit mix constant, distinct from the redundancy cache's Fibonacci
// multiplier and the pipeline's shard seed so the sampled slice correlates
// with neither cache indexing nor shard routing).
const sampleMix uint64 = 0xD6E8FEB86659FD93

// Options configures a Monitor.
type Options struct {
	// Threads is the target program's thread count (sizes the shadow).
	Threads int
	// SampleBits is k: the monitor shadows the 1/2^k hash-selected slice of
	// the granule address space. 0 samples every granule (full shadowing,
	// the configuration under which the estimate equals the offline
	// exact-diff FPR); each additional bit halves the slice and the
	// monitor's memory/time cost.
	SampleBits uint
	// TargetFPR is the acceptable signature false-positive rate the advisor
	// sizes for and the alarm compares against. Required, in (0,1).
	TargetFPR float64
	// Seed perturbs the sample selector so repeated runs can shadow
	// different slices (used by the estimator-validation tests); 0 keeps
	// the default slice.
	Seed uint64
	// Probes, when non-nil, receives self-observability telemetry. Nil
	// keeps the monitor uninstrumented.
	Probes *obs.AccuracyProbes
}

// Monitor pairs production detection verdicts with exact shadow verdicts
// over the sampled granule slice. One Monitor belongs to its detector's one
// caller at a time (the in-thread source or one shard worker), exactly like
// the redundancy cache; the counters are atomics only so telemetry
// snapshots can read a consistent-enough view while a run is in flight.
type Monitor struct {
	opts   Options
	shift  uint // 64 - SampleBits; hash >> shift == 0 selects the slice
	shadow *sig.Perfect

	sampledReads  atomic.Uint64
	sampledWrites atomic.Uint64
	sigEvents     atomic.Uint64
	confirmed     atomic.Uint64
	falsePos      atomic.Uint64
	missed        atomic.Uint64

	// Cluster tallies for the granule-robust interval: per-granule signature
	// event and false-positive counts (owner-only, like the shadow) plus the
	// aggregate moments Σn², Σf² and Σnf maintained incrementally in atomics
	// so a telemetry snapshot can read them mid-run. Signature false
	// positives cluster by granule — one crowded slot poisons every verdict
	// on its granules — so the Wilson interval's independent-trials
	// assumption undercovers; the moments feed a cluster-robust variance
	// (design-effect) correction (see EstimateFrom).
	clusters      map[uint64]clusterTally
	eventGranules atomic.Uint64
	clusterEvSq   atomic.Uint64
	clusterFPSq   atomic.Uint64
	clusterEvFP   atomic.Uint64
}

// clusterTally is one sampled granule's signature-event history.
type clusterTally struct {
	ev, fp uint32
}

// clusterEvent folds one signature event (a false positive when fp) into the
// per-granule tallies and the aggregate moments. With the granule's counts
// going n→n+1 and f→f+d, the moments advance by Σn² += 2n+1,
// Σf² += d·(2f+1) and Σnf += f + d·(n+1).
func (m *Monitor) clusterEvent(gaddr uint64, fp bool) {
	c := m.clusters[gaddr]
	n, f := uint64(c.ev), uint64(c.fp)
	if n == 0 {
		m.eventGranules.Add(1)
	}
	m.clusterEvSq.Add(2*n + 1)
	if fp {
		m.clusterFPSq.Add(2*f + 1)
		m.clusterEvFP.Add(f + n + 1)
		c.fp++
	} else {
		m.clusterEvFP.Add(f)
	}
	c.ev++
	m.clusters[gaddr] = c
}

// New builds a monitor.
func New(opts Options) (*Monitor, error) {
	if opts.Threads <= 0 {
		return nil, fmt.Errorf("accuracy: Threads must be positive, got %d", opts.Threads)
	}
	if opts.SampleBits > MaxSampleBits {
		return nil, fmt.Errorf("accuracy: SampleBits must be at most %d, got %d", MaxSampleBits, opts.SampleBits)
	}
	if opts.TargetFPR <= 0 || opts.TargetFPR >= 1 {
		return nil, fmt.Errorf("accuracy: TargetFPR must be in (0,1), got %v", opts.TargetFPR)
	}
	return &Monitor{
		opts:     opts,
		shift:    64 - opts.SampleBits,
		shadow:   sig.NewPerfect(opts.Threads),
		clusters: make(map[uint64]clusterTally),
	}, nil
}

// Sampled reports whether a granule belongs to the shadowed slice. The
// selector is one add, one multiply and one shift — cheap enough to sit on
// the detection hot path — and purely address-determined, so a granule is
// either fully shadowed or fully skipped for the whole run. gaddr must
// already be granularity-coarsened (the same contract as redundancy.Cache).
// For SampleBits 0 the shift is 64, which Go defines to yield 0: every
// granule is sampled.
func (m *Monitor) Sampled(gaddr uint64) bool {
	return ((gaddr+m.opts.Seed)*sampleMix)>>m.shift == 0
}

// ObserveWrite mirrors a production write into the shadow when its granule
// is sampled. Call it exactly when the production backend's ObserveWrite
// runs (after any redundancy skip).
func (m *Monitor) ObserveWrite(gaddr uint64, tid int32) {
	if !m.Sampled(gaddr) {
		return
	}
	m.sampledWrites.Add(1)
	if p := m.opts.Probes; p != nil {
		p.Sampled.Inc()
	}
	m.shadow.ObserveWrite(gaddr, tid)
}

// ObserveRead pairs one production read verdict with the exact shadow
// verdict when the granule is sampled. prodEvent is the production
// detector's final communicating-access decision for this read (after the
// stale-writer drop) and prodWriter its attributed writer. Call it exactly
// when the production backend's ObserveRead ran, whatever the verdict.
func (m *Monitor) ObserveRead(gaddr uint64, tid int32, prodEvent bool, prodWriter int32) {
	if !m.Sampled(gaddr) {
		return
	}
	m.sampledReads.Add(1)
	if p := m.opts.Probes; p != nil {
		p.Sampled.Inc()
	}
	writer, first := m.shadow.ObserveRead(gaddr, tid)
	exact := writer != sig.NoWriter && writer != tid && first
	switch {
	case prodEvent && exact && writer == prodWriter:
		m.confirmed.Add(1)
		m.sigEvents.Add(1)
		m.clusterEvent(gaddr, false)
		if p := m.opts.Probes; p != nil {
			p.Confirmed.Inc()
		}
	case prodEvent:
		// The bounded signature reported a dependence the exact shadow
		// rejects (or attributes to a different writer): a collision-made
		// false positive, the quantity the paper's §V-A3 sweep measures.
		m.falsePos.Add(1)
		m.sigEvents.Add(1)
		m.clusterEvent(gaddr, true)
		if p := m.opts.Probes; p != nil {
			p.FalsePositives.Inc()
		}
	case exact:
		// The exact shadow sees a dependence the signature missed — a
		// false negative, possible when a colliding address's read left the
		// reader's bit set in the shared read slot ("already read") or a
		// write-slot collision masks the true writer with the reader's own ID.
		m.missed.Add(1)
		if p := m.opts.Probes; p != nil {
			p.MissedEvents.Inc()
		}
	}
}

// Stats is the monitor's raw paired-verdict counters. Per-shard monitor
// stats merge by summation: shard routing and granule sampling slice the
// same address space along independent hashes, so each sampled granule's
// verdicts live wholly in one shard's counters.
type Stats struct {
	// SampledAccesses is the number of accesses that reached the shadow
	// (reads + writes in the sampled slice, after redundancy skips).
	SampledAccesses uint64
	// SampledReads / SampledWrites split SampledAccesses by kind.
	SampledReads, SampledWrites uint64
	// SampledGranules is the number of distinct granules the shadow tracks.
	SampledGranules uint64
	// SigEvents counts production communicating-access verdicts in the
	// slice (the estimator's trial count).
	SigEvents uint64
	// Confirmed counts signature events the exact shadow agrees with,
	// writer included.
	Confirmed uint64
	// FalsePositives counts signature events the shadow rejects or
	// re-attributes.
	FalsePositives uint64
	// MissedEvents counts exact dependencies the signature failed to
	// report (signature false negatives).
	MissedEvents uint64
	// EventGranules counts distinct granules that produced at least one
	// signature event: the cluster count k of the robust interval.
	EventGranules uint64
	// ClusterEvSq / ClusterFPSq / ClusterEvFP are the granule-level moments
	// Σn², Σf² and Σn·f over per-granule event counts n and false-positive
	// counts f. They merge by summation exactly like the scalar counters:
	// shard routing is granule-disjoint, so no granule's tally is split
	// across shards and cross terms never arise.
	ClusterEvSq, ClusterFPSq, ClusterEvFP uint64
}

// Add merges another snapshot into s.
func (s Stats) Add(o Stats) Stats {
	s.SampledAccesses += o.SampledAccesses
	s.SampledReads += o.SampledReads
	s.SampledWrites += o.SampledWrites
	s.SampledGranules += o.SampledGranules
	s.SigEvents += o.SigEvents
	s.Confirmed += o.Confirmed
	s.FalsePositives += o.FalsePositives
	s.MissedEvents += o.MissedEvents
	s.EventGranules += o.EventGranules
	s.ClusterEvSq += o.ClusterEvSq
	s.ClusterFPSq += o.ClusterFPSq
	s.ClusterEvFP += o.ClusterEvFP
	return s
}

// Stats snapshots the counters; safe while the owner is monitoring.
func (m *Monitor) Stats() Stats {
	r, w := m.sampledReads.Load(), m.sampledWrites.Load()
	return Stats{
		SampledAccesses: r + w,
		SampledReads:    r,
		SampledWrites:   w,
		SampledGranules: uint64(m.shadow.Entries()),
		SigEvents:       m.sigEvents.Load(),
		Confirmed:       m.confirmed.Load(),
		FalsePositives:  m.falsePos.Load(),
		MissedEvents:    m.missed.Load(),
		EventGranules:   m.eventGranules.Load(),
		ClusterEvSq:     m.clusterEvSq.Load(),
		ClusterFPSq:     m.clusterFPSq.Load(),
		ClusterEvFP:     m.clusterEvFP.Load(),
	}
}

// ShadowFootprintBytes reports the memory the exact shadow holds — the
// unbounded quantity SampleBits exists to shrink.
func (m *Monitor) ShadowFootprintBytes() uint64 { return m.shadow.FootprintBytes() }

// Estimate is the derived accuracy estimate: the FPR point estimate over
// the sampled slice with its 95% Wilson interval, plus the working-set
// extrapolation the advisor uses.
type Estimate struct {
	Stats
	// SampleBits / SampleFraction describe the slice the stats came from.
	SampleBits     uint
	SampleFraction float64
	// EstimatedFPR is FalsePositives / SigEvents — at SampleBits 0 it is
	// exactly the offline exact-diff FPR of experiments.FPRSweep.
	EstimatedFPR float64
	// FPRLow / FPRHigh bound EstimatedFPR with a 95% Wilson score
	// interval; [0,1] when the slice saw no signature events.
	FPRLow, FPRHigh float64
	// DesignEffect is SigEvents / EffectiveSigEvents: how much granule-level
	// clustering of false positives inflates the estimator's variance over
	// the independent-trials assumption. 1 means verdicts are effectively
	// independent; a crowded slot poisoning every verdict on its granules
	// pushes it toward the mean events-per-granule.
	DesignEffect float64
	// EffectiveSigEvents is the cluster-robust effective trial count
	// n_eff = p(1-p)/V_rob, the independent-trial count whose binomial
	// variance matches the between-granule (CR1-corrected) variance of the
	// observed verdicts. Clamped to [1, SigEvents]; equal to SigEvents when
	// clustering is absent.
	EffectiveSigEvents float64
	// FPRLowClustered / FPRHighClustered bound EstimatedFPR with a Wilson
	// interval at the effective trial count — the honest interval when false
	// positives arrive in granule-level bursts. Always at least as wide as
	// [FPRLow, FPRHigh].
	FPRLowClustered, FPRHighClustered float64
	// TargetFPR echoes the configured target.
	TargetFPR float64
	// EstimatedWorkingSet extrapolates the run's distinct-granule count
	// from the sampled slice: SampledGranules * 2^SampleBits. The hash
	// selector makes the slice an unbiased 1/2^k sample of the granules
	// actually touched.
	EstimatedWorkingSet uint64
}

// EstimateFrom derives the estimate for a stats snapshot taken from a
// monitor (or a merge of per-shard monitors) configured with the given
// slice width and target.
func EstimateFrom(st Stats, sampleBits uint, targetFPR float64) Estimate {
	est := Estimate{
		Stats:               st,
		SampleBits:          sampleBits,
		SampleFraction:      1 / float64(uint64(1)<<sampleBits),
		TargetFPR:           targetFPR,
		EstimatedWorkingSet: st.SampledGranules << sampleBits,
	}
	if st.SigEvents > 0 {
		est.EstimatedFPR = float64(st.FalsePositives) / float64(st.SigEvents)
	}
	est.FPRLow, est.FPRHigh = Wilson(st.FalsePositives, st.SigEvents, 1.96)
	est.EffectiveSigEvents = effectiveTrials(st)
	if est.EffectiveSigEvents > 0 {
		est.DesignEffect = float64(st.SigEvents) / est.EffectiveSigEvents
	}
	est.FPRLowClustered, est.FPRHighClustered = wilsonReal(
		est.EstimatedFPR*est.EffectiveSigEvents, est.EffectiveSigEvents, 1.96)
	return est
}

// effectiveTrials computes the cluster-robust effective trial count from the
// granule moments. With per-granule event counts n_g (Σ n_g = n over k
// granules) and false-positive counts f_g, the CR1 cluster-robust variance of
// p̂ = Σf_g / n is
//
//	V_rob = k/(k-1) · Σ (f_g - p̂·n_g)² / n²
//	      = k/(k-1) · (Σf² - 2p̂·Σnf + p̂²·Σn²) / n²
//
// which needs only the incrementally maintained moments. The effective trial
// count is then n_eff = p̂(1-p̂)/V_rob — the independent-Bernoulli count with
// the same variance. Degenerate p̂ (all or none false positives) makes both
// numerator and V_rob vanish; there the worst case is full within-granule
// correlation (every granule one Bernoulli trial, size-weighted), giving
// n_eff = n²·(k-1)/(k·Σn²) — ≈k-1 for equal cluster sizes and ≈n when every
// granule saw one event. The result is clamped to [1, n]: clustering can only
// lose information, and one event is always one trial.
func effectiveTrials(st Stats) float64 {
	n := float64(st.SigEvents)
	if st.SigEvents == 0 {
		return 0
	}
	k := float64(st.EventGranules)
	if st.EventGranules <= 1 {
		// A single cluster carries no between-granule information; treat the
		// whole slice as one trial.
		return 1
	}
	p := float64(st.FalsePositives) / n
	neff := n
	if pq := p * (1 - p); pq > 0 {
		vrob := k / (k - 1) * (float64(st.ClusterFPSq) - 2*p*float64(st.ClusterEvFP) + p*p*float64(st.ClusterEvSq)) / (n * n)
		if vrob > 0 {
			neff = pq / vrob
		}
	} else {
		// p̂ of exactly 0 or 1 leaves the robust variance undefined; assume
		// worst-case correlation ρ=1 so the interval stays honest.
		neff = n * n * (k - 1) / (k * float64(st.ClusterEvSq))
	}
	return math.Min(n, math.Max(1, neff))
}

// Wilson returns the Wilson score interval for successes out of trials at
// critical value z (1.96 ≈ 95%). Unlike the normal approximation it stays
// inside [0,1] and behaves at the small trial counts a thin sample slice
// produces. Returns the uninformative [0,1] when trials is 0.
func Wilson(successes, trials uint64, z float64) (lo, hi float64) {
	return wilsonReal(float64(successes), float64(trials), z)
}

// wilsonReal is Wilson over real-valued counts, as produced by the effective
// trial count of the cluster-robust interval (n_eff is rarely an integer).
func wilsonReal(successes, trials, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := trials
	p := successes / n
	z2 := z * z
	den := 1 + z2/n
	center := (p + z2/(2*n)) / den
	half := z / den * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return math.Max(0, center-half), math.Min(1, center+half)
}

// Recommendation is the advisor's output: the signature size that would
// bring the measured FPR down to the target, and its memory price.
type Recommendation struct {
	// CurrentSlots / CurrentBytes describe the run's configuration: its slot
	// count and the memory its signature holds.
	CurrentSlots, CurrentBytes uint64
	// RecommendedSlots is the advised signature size: CurrentSlots scaled
	// by measured/target FPR and rounded up to a power of two (signature
	// collision probability at small load factors is linear in
	// working-set/slots, so FPR scales ≈ 1/slots). Equal to CurrentSlots
	// when the run already meets the target or saw no events.
	RecommendedSlots uint64
	// RecommendedBytes prices RecommendedSlots at CurrentBytes per
	// CurrentSlots: the signature's memory is linear in its slot count.
	RecommendedBytes uint64
}

// maxRecommendSlots caps the advisor at 2^40 slots (beyond any machine; the
// cap keeps the power-of-two rounding from overflowing on degenerate
// estimates).
const maxRecommendSlots = uint64(1) << 40

// Recommend sizes a signature for est.TargetFPR given the run's current slot
// count and the bytes its signature holds (sig.Backend.FootprintBytes).
func Recommend(est Estimate, currentSlots, currentBytes uint64) Recommendation {
	rec := Recommendation{
		CurrentSlots:     currentSlots,
		CurrentBytes:     currentBytes,
		RecommendedSlots: currentSlots,
		RecommendedBytes: currentBytes,
	}
	if est.SigEvents > 0 && est.TargetFPR > 0 && est.EstimatedFPR > est.TargetFPR {
		scaled := float64(currentSlots) * est.EstimatedFPR / est.TargetFPR
		want := uint64(1)
		for want < maxRecommendSlots && float64(want) < scaled {
			want <<= 1
		}
		rec.RecommendedSlots = want
		rec.RecommendedBytes = uint64(math.Ceil(float64(currentBytes) / float64(currentSlots) * float64(want)))
	}
	return rec
}

// Alarm is a warn-once saturation latch. The zero value is ready; Evaluate
// may be called from any goroutine (the telemetry ticker races report
// building) and the first estimate to trip it wins permanently.
type Alarm struct {
	fired atomic.Bool
	msg   atomic.Value // string
}

// Evaluate latches an alarm when the estimate's Wilson lower bound exceeds
// the target: the FPR is above target with ~97.5% one-sided confidence.
// Using the lower bound instead of the point estimate keeps a handful of
// early false positives from tripping a run-long warning.
func (a *Alarm) Evaluate(est Estimate) {
	if a.fired.Load() || est.TargetFPR <= 0 || est.FPRLow <= est.TargetFPR {
		return
	}
	msg := fmt.Sprintf(
		"estimated signature FPR %.1f%% (95%% CI lower bound %.1f%%) exceeds target %.1f%%: signature is saturating, consider more slots",
		100*est.EstimatedFPR, 100*est.FPRLow, 100*est.TargetFPR)
	if a.fired.CompareAndSwap(false, true) {
		a.msg.Store(msg)
	}
}

// Message returns the latched message, if any.
func (a *Alarm) Message() (string, bool) {
	if !a.fired.Load() {
		return "", false
	}
	s, _ := a.msg.Load().(string)
	return s, s != ""
}
