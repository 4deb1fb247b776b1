// Package commprof is a loop-level communication-pattern profiler for
// shared-memory parallel programs — a from-scratch reproduction of
// "Characterizing Loop-Level Communication Patterns in Shared Memory
// Applications" (Mazaheri, Jannesari, Mirzaei, Wolf — ICPP 2015).
//
// The profiler detects read-after-write dependencies between threads on the
// fly using an asymmetric signature memory (a two-level read signature whose
// slots hold exact reader sets, plus a one-level last-writer write
// signature), and aggregates them into communication matrices nested by
// static code region (functions and annotated loops). From the matrices it derives per-thread load metrics
// (Eq. 1), communication phases, and parallel-pattern classifications.
//
// Three entry points:
//
//   - Profile runs one of the bundled SPLASH-2-style benchmarks under the
//     profiler and returns a full Report.
//   - ProfileTrace analyses a recorded access trace you supply.
//   - Run executes your own workload body on the simulated thread engine
//     with the profiler attached.
package commprof

import (
	"commprof/internal/accuracy"
	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/splash"
)

// Options configures a profiling run. The fields that shape the analysis
// rather than name a workload have one command-line flag each, declared once
// by BindFlags (flags.go), which is also how they reach an instrumented
// program.
type Options struct {
	// Workload names a bundled benchmark (see Workloads). Required for
	// Profile; ignored by ProfileTrace and Run.
	Workload string
	// Threads is the simulated thread count (default 32, the paper's
	// configuration). Every entry point analyses at most 256 threads, the
	// signature's exact reader sets, and refuses more by name.
	Threads int
	// InputSize is "simdev", "simsmall" or "simlarge" (default "simdev").
	InputSize string
	// Seed drives all workload randomness. The zero value is a sentinel
	// meaning "unset" and is rewritten to defaultSeed (42) by setDefaults,
	// so an explicit Seed: 0 cannot be distinguished from leaving the field
	// empty — both run with seed 42. Pick any other value to seed
	// explicitly.
	Seed int64
	// SignatureSlots is the signature size n (default 2^20). Larger means
	// fewer false dependencies and more memory: 2 + 4·⌈t/32⌉ bytes per slot,
	// so 6 up to 32 threads (Report.SignatureBytes).
	SignatureSlots uint64
	// PhaseWindow, when non-zero, enables windowed phase observability with
	// the given logical-time window length: §V-A4 phase segmentation
	// (Report.Phases), a classified pattern timeline with whole-program
	// transitions and a per-hot-loop digest (Report.PhaseTimeline), and —
	// with Options.Telemetry — live current-pattern gauges plus phase fields
	// in /progress. Windows are bucketed by the global access index every
	// access already carries, so the layer composes with AnalysisShards:
	// shard partials merge by summation into exactly the window set the
	// in-thread analyser builds. The timeline classifies with the shipped
	// default model (NewPatternClassifier(0)) whatever Seed is.
	PhaseWindow uint64
	// SamplePeriod enables read sampling (the paper's §VII
	// overhead-reduction outlook): of every SamplePeriod reads per thread,
	// the first is analysed; writes are always analysed. Zero disables
	// sampling. Detected volumes scale by roughly 1/SamplePeriod, and
	// Report.SampleFraction and Summary say so. The gate sits in front of the
	// analyser on every entry point; Record's trace is written ahead of it and
	// stays complete.
	SamplePeriod uint32
	// GranularityBits coarsens the analysis granularity: addresses are
	// shifted right by this amount before consulting the signature (0 =
	// per-address, 6 = 64-byte cache lines). Coarser analysis reduces
	// signature collisions but merges neighbouring variables (false
	// sharing appears). 64 and above would leave a single granule and is
	// rejected by every entry point.
	GranularityBits uint
	// DisableCoalesce turns off the static access-coalescing pass on
	// MiniPar runs (ProfileMiniPar; see internal/passes.Coalesce). The
	// pass is on by default: probes the compiler proves redundant within a
	// basic block or simple loop body are elided before the analyser ever
	// sees them, shrinking every downstream stage while leaving scheduling
	// and timestamps bit-identical. Elisions are exact under sync-only
	// scheduling (a quantum no thread exhausts); under the default
	// preemptive quantum they assume the usual data-race-free/no-false-
	// sharing discipline between synchronisation points — set this to true
	// to profile code that races within a scheduling quantum. Ignored by
	// the bundled SPLASH workloads, which issue accesses directly rather
	// than through compiled MiniPar IR.
	DisableCoalesce bool
	// MaxHotspots caps the number of ranked hotspot loops in the report.
	// 0 means the default of 10; a negative value lifts the cap entirely.
	MaxHotspots int
	// AnalysisShards is the analysis engine's shard count K
	// (internal/pipeline), honoured by every entry point. 0 (the default) is
	// the paper's in-thread analysis: Algorithm 1 runs in the program's own
	// threads over one signature — in every entry point, command-line tool
	// and instrumented program alike; nothing rewrites it to a core count.
	// When positive, each access is routed by
	// address hash to one of K shards, each owning a private partition of the
	// signature slot budget, a bounded queue and a dedicated worker
	// goroutine; shard matrices merge into the standard report at the end of
	// the run. Composes with PhaseWindow: shard workers bucket events by the
	// global access index and the per-shard window partials merge to the
	// in-thread analyser's exact window set.
	AnalysisShards int
	// ShardQueueCapacity bounds the accesses handed to each shard and not yet
	// analysed when AnalysisShards is active (0 = the pipeline default of
	// 8192): the run's memory bound. A producer facing a full queue blocks
	// until the shard's worker catches up — analysis stays exhaustive; to
	// analyse less, use SamplePeriod. In-thread analysis (AnalysisShards 0)
	// has no queue.
	ShardQueueCapacity int
	// RedundancyCacheBits, when non-zero, enables the redundancy-filtering
	// fast path: a 2^bits-entry direct-mapped cache of the last (thread,
	// kind) to touch each analysis granule, which skips the signature
	// backend for accesses Algorithm 1 provably classifies as
	// non-communicating — a thread re-reading or re-writing what it just
	// touched (see internal/redundancy). Detected dependencies and matrices
	// are unchanged on a collision-free backend and statistically unchanged
	// on the asymmetric signature; Report.Redundancy carries the hit-rate
	// telemetry. 10–14 bits (a cache that fits in L1/L2) is the sweet spot.
	// The cache has a single consumer: in-thread that is the detector's one
	// caller, the analyser goroutine behind every source; sharded each
	// worker owns a private one.
	RedundancyCacheBits uint
	// AccuracyTargetFPR, when positive (and < 1), enables the online
	// signature-accuracy monitor: a deterministically hash-selected
	// 1/2^AccuracySampleBits slice of the granule address space is analysed
	// a second time by an exact collision-free shadow, and every production
	// communicating-access verdict in the slice is confirmed or refuted
	// against it. The run gains Report.Accuracy — a live estimate of the
	// signature false-positive rate (the paper's §V-A3 number) with a 95%
	// confidence interval, a recommended-signature-size advisor, and
	// a warn-once saturation alarm — at the cost of shadowing the sampled
	// slice exactly. Zero (the default) disables the monitor. The value is
	// the FPR the run is expected to stay under; DefaultAccuracyTargetFPR
	// is a reasonable starting point. Like RedundancyCacheBits, the monitor
	// has a single consumer (the production and shadow verdicts of a granule
	// must interleave in one temporal order to stay paired): in-thread that
	// is the detector's one caller, the analyser goroutine behind every
	// source; sharded each worker monitors its own partition.
	AccuracyTargetFPR float64
	// AccuracySampleBits is k in the 1/2^k accuracy sample: 0 shadows every
	// granule (exact — Report.Accuracy.EstimatedFPR equals the offline
	// exact-diff FPR, at unbounded shadow memory), each added bit halves
	// the monitored slice and the monitor's cost. Ignored unless
	// AccuracyTargetFPR is set. At most accuracy.MaxSampleBits (16).
	AccuracySampleBits uint
	// Telemetry, when non-nil, threads self-observability probes through
	// the signature, detector and executor layers, records run-phase spans,
	// and attaches an end-of-run snapshot as Report.Telemetry. See
	// NewTelemetry. Nil (the default) keeps the pipeline uninstrumented.
	Telemetry *Telemetry
}

// defaultSeed is what a zero seed means, for Options.Seed and
// NewPatternClassifier alike.
const defaultSeed = 42

func (o *Options) setDefaults() {
	if o.Threads == 0 {
		o.Threads = 32
	}
	if o.InputSize == "" {
		o.InputSize = "simdev"
	}
	if o.Seed == 0 {
		o.Seed = defaultSeed
	}
	if o.SignatureSlots == 0 {
		o.SignatureSlots = 1 << 20
	}
	if o.MaxHotspots == 0 {
		o.MaxHotspots = 10
	}
}

// DefaultAccuracyTargetFPR is a reasonable Options.AccuracyTargetFPR when
// the caller has no specific budget: 5%, between the paper's 8.4% and 2.1%
// operating points.
const DefaultAccuracyTargetFPR = accuracy.DefaultTargetFPR

// accuracyOptions maps the public accuracy knobs onto internal/accuracy
// options; nil when the monitor is disabled (AccuracyTargetFPR == 0).
func (o Options) accuracyOptions(threads int, probes obs.Probes) *accuracy.Options {
	if o.AccuracyTargetFPR <= 0 {
		return nil
	}
	return &accuracy.Options{
		Threads:    threads,
		SampleBits: o.AccuracySampleBits,
		TargetFPR:  o.AccuracyTargetFPR,
		Probes:     probes.Accuracy,
	}
}

// Workloads returns the names of the bundled SPLASH-2-style benchmarks.
func Workloads() []string { return splash.Names() }

// SignatureMemoryBytes is Eq. 2: the paper's memory model for its bloom
// signature with n slots, t threads and the given bloom false-positive rate,
// an upper bound on what the profiler's exact reader sets hold.
func SignatureMemoryBytes(slots uint64, threads int, fpRate float64) uint64 {
	return sig.SigMem(slots, threads, fpRate)
}

// splashSource builds the bundled workload Options names as an engine
// source (Profile's and Record's program).
func splashSource(opts Options) (engineSource, error) {
	size, err := splash.ParseSize(opts.InputSize)
	if err != nil {
		return engineSource{}, err
	}
	prog, err := splash.New(opts.Workload, splash.Config{
		Threads: opts.Threads, Size: size, Seed: opts.Seed,
	})
	if err != nil {
		return engineSource{}, err
	}
	return engineSource{name: opts.Workload, threads: opts.Threads, table: prog.Table(), run: prog.Run}, nil
}

// Profile runs the named bundled workload under the profiler.
func Profile(opts Options) (*Report, error) {
	opts.setDefaults()
	setup := opts.Telemetry.Span("workload-setup")
	src, err := splashSource(opts)
	if err != nil {
		return nil, err
	}
	src.setup = setup
	return profileEngine(opts, src)
}
