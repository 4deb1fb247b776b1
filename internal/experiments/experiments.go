// Package experiments contains one runner per table and figure of the
// paper's evaluation (§V, §VI). Each runner builds its workloads, executes
// them under the profiler (and, where the experiment calls for it, under the
// comparison profilers), and returns structured rows. Experiments is the one
// table of IDs that cmd/commbench, the goldens and the benchmarks read;
// DESIGN.md §4 maps those IDs to the paper.
package experiments

import (
	"fmt"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// Env is the shared experiment configuration: exactly what commbench's
// flags set.
type Env struct {
	// Threads is the simulated thread count; the paper runs 32.
	Threads int
	// Seed drives all workload randomness.
	Seed int64
	// SigSlots is the signature size used where the experiment does not
	// sweep it. The paper's standard operating point is 1e7 slots against
	// SPLASH-scale working sets; against this repository's smaller synthetic
	// working sets the equivalent slots/working-set ratio is reached at
	// 2^20 (see EXPERIMENTS.md, "scaling").
	SigSlots uint64
	// Probes, when set, threads self-observability hooks through every
	// signature, detector and engine the experiment helpers construct, so a
	// live /metrics endpoint can watch a long commbench sweep: every
	// detector an experiment runs in-thread reports to Probes.Detect, so
	// each experiment but eq2 adds its dependences to detect_events_total
	// (the sharded rows of phases and throughput leave it out). The zero
	// value (the default) keeps experiment runs uninstrumented.
	Probes obs.Probes
}

// The paper's fixed parameters. fpRate is the bloom-filter false-positive
// rate (paper: 0.001). nativeLoadNs and nativeALUNs model native hardware
// costs for the Fig. 4 slowdown baseline: nanoseconds per memory access and
// per ALU work unit on the paper's hardware class (see EXPERIMENTS.md,
// "calibration").
const (
	fpRate       = 0.001
	nativeLoadNs = 0.6
	nativeALUNs  = 0.4
)

// DefaultEnv mirrors the paper's §V configuration where possible; its
// values are commbench's flag defaults.
func DefaultEnv() Env {
	return Env{Threads: 32, Seed: 42, SigSlots: 1 << 20}
}

func (e Env) validate() error {
	if e.Threads <= 0 {
		return fmt.Errorf("experiments: Threads must be positive")
	}
	if e.SigSlots == 0 {
		return fmt.Errorf("experiments: SigSlots must be positive")
	}
	return nil
}

// Result is one experiment's structured output; Render is the text
// commbench prints for it.
type Result interface{ Render() string }

// Experiment is one entry of the evaluation's index (DESIGN.md §4): the ID
// commbench -exp accepts and the run that regenerates it, with the
// application, input size and shard arguments fixed.
type Experiment struct {
	ID  string
	run func(Env) (Result, error)
}

// Run checks env and regenerates the experiment: the one place an Env
// enters the package, so an invalid one fails here before any workload
// runs. The Result is meaningful only when the error is nil.
func (e Experiment) Run(env Env) (Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	return e.run(env)
}

// Experiments is every experiment, sorted by ID: commbench -listexp prints
// these IDs and -exp all runs them in this order, and the goldens and the
// root package's BenchmarkExperiments iterate the same list.
var Experiments = []Experiment{
	{"coalesce", func(env Env) (Result, error) { return Coalesce(env) }},
	{"eq2", func(env Env) (Result, error) { return text(Eq2()), nil }},
	{"fig2", func(env Env) (Result, error) { return Fig2(env) }},
	{"fig4", func(env Env) (Result, error) { return Fig4(env, splash.SimDev) }},
	{"fig5a", func(env Env) (Result, error) { return Fig5(env, splash.SimDev) }},
	{"fig5b", func(env Env) (Result, error) { return Fig5(env, splash.SimLarge) }},
	{"fig6", func(env Env) (Result, error) { return Fig6(env, splash.SimDev) }},
	{"fig7", func(env Env) (Result, error) { return Fig7(env, splash.SimDev) }},
	{"fig8", func(env Env) (Result, error) { return Fig8(env, splash.SimDev) }},
	{"fpr", func(env Env) (Result, error) { return FPRSweep(env, splash.SimDev, nil) }},
	{"hash", func(env Env) (Result, error) { return HashAblation(env, splash.SimDev, 0) }},
	{"patterns", func(env Env) (Result, error) { return Patterns(env, splash.SimDev) }},
	{"phases", func(env Env) (Result, error) { return Phases(env, "radix", splash.SimDev) }},
	{"queue", func(env Env) (Result, error) { return Queue(env, "radix", splash.SimDev) }},
	{"sampling", func(env Env) (Result, error) { return SamplingAblation(env, "lu_ncb", splash.SimDev) }},
	{"sparse", func(env Env) (Result, error) { return SparseAblation(env, splash.SimDev) }},
	{"table1", func(env Env) (Result, error) { return Table1(env, splash.SimDev) }},
	{"throughput", func(env Env) (Result, error) { return Throughput(env, "ocean_cp", splash.SimDev) }},
}

// text is an experiment whose output is the rendered text itself (Eq. 2).
type text string

func (t text) Render() string { return string(t) }

// newSignature builds the asymmetric signature every experiment in this
// package runs against: the paper's, with per-slot bloom filters (sig.Bloom).
// The experiments reproduce the paper's figures — Fig. 5's memory, Eq. 2, the
// §V-A3 sweep, the hash ablation — so they measure its structure, not the
// exact reader masks the profiler itself uses. Nothing outside this package
// builds it.
func (e Env) newSignature(slots uint64, hash sig.HashKind) (*sig.Bloom, error) {
	return sig.NewBloom(sig.Options{
		Slots: slots, Threads: e.Threads, Hash: hash,
		Probes: e.Probes.Sig,
	}, fpRate)
}

// program builds one benchmark at size for this environment: the
// package's one splash.New.
func (e Env) program(app string, size splash.Size) (splash.Program, error) {
	return splash.New(app, splash.Config{Threads: e.Threads, Size: size, Seed: e.Seed})
}

// run executes prog (app's program) on a default-quantum engine under probe.
func (e Env) run(app string, prog splash.Program, probe exec.Probe) (exec.Stats, error) {
	stats, err := prog.Run(exec.New(exec.Options{Threads: e.Threads, Probe: probe, Probes: e.Probes.Engine}))
	if err != nil {
		return exec.Stats{}, fmt.Errorf("experiments: %s: %w", app, err)
	}
	return stats, nil
}

// record runs one benchmark and returns its access stream and region table,
// for the experiments that replay one stream through several analysers.
func (e Env) record(app string, size splash.Size) ([]trace.Access, *trace.Table, error) {
	prog, err := e.program(app, size)
	if err != nil {
		return nil, nil, err
	}
	var stream []trace.Access
	if _, err := e.run(app, prog, func(a trace.Access) { stream = append(stream, a) }); err != nil {
		return nil, nil, err
	}
	return stream, prog.Table(), nil
}

// detector builds a detector over backend that reports to Env.Probes.
func (e Env) detector(backend sig.Backend, table *trace.Table) (*detect.Detector, error) {
	return detect.New(detect.Options{
		Threads: e.Threads, Backend: backend, Table: table,
		Probes: e.Probes.Detect,
	})
}

// newDetector builds the standard asymmetric-signature detector for a
// program.
func (e Env) newDetector(table *trace.Table) (*detect.Detector, *sig.Bloom, error) {
	s, err := e.newSignature(e.SigSlots, sig.HashMurmur)
	if err != nil {
		return nil, nil, err
	}
	d, err := e.detector(s, table)
	return d, s, err
}

// profile runs one benchmark under the standard detector and returns both.
func (e Env) profile(app string, size splash.Size) (*detect.Detector, splash.Program, error) {
	prog, err := e.program(app, size)
	if err != nil {
		return nil, nil, err
	}
	d, _, err := e.newDetector(prog.Table())
	if err != nil {
		return nil, nil, err
	}
	if _, err := e.run(app, prog, d.Probe()); err != nil {
		return nil, nil, err
	}
	return d, prog, nil
}
