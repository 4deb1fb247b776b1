// Package experiments contains one runner per table and figure of the
// paper's evaluation (§V, §VI). Each runner builds its workloads, executes
// them under the profiler (and, where the experiment calls for it, under the
// comparison profilers), and returns structured rows that cmd/commbench and
// the bench harness render. DESIGN.md §4 is the index mapping experiment IDs
// to these runners.
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

// Env is the shared experiment configuration.
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
	// FPRate is the bloom-filter false-positive rate (paper: 0.001).
	FPRate float64
	// NativeLoadNs and NativeALUNs model native hardware costs for the
	// Fig. 4 slowdown baseline: nanoseconds per memory access and per ALU
	// work unit on the paper's hardware class (see EXPERIMENTS.md,
	// "calibration").
	NativeLoadNs float64
	NativeALUNs  float64
	// Probes, when non-nil, threads self-observability hooks through every
	// signature/detector/engine the experiment helpers construct, so a live
	// /metrics endpoint can watch a long commbench sweep. Nil (the default)
	// keeps experiment runs uninstrumented.
	Probes obs.Probes
	// DisableCoalesce turns off the static probe-coalescing pass in the
	// experiments that compile MiniPar programs (the coalesce ablation).
	// SPLASH workloads issue probes directly and are unaffected. With the
	// pass forced off the ablation's table degenerates to zero elision on
	// every row — the commbench -coalesce=false escape hatch made visible.
	DisableCoalesce bool
}

// DefaultEnv mirrors the paper's §V configuration where possible.
func DefaultEnv() Env {
	return Env{Threads: 32, Seed: 42, SigSlots: 1 << 20, FPRate: 0.001, NativeLoadNs: 0.6, NativeALUNs: 0.4}
}

func (e Env) validate() error {
	if e.Threads <= 0 {
		return fmt.Errorf("experiments: Threads must be positive")
	}
	if e.SigSlots == 0 {
		return fmt.Errorf("experiments: SigSlots must be positive")
	}
	if e.FPRate <= 0 || e.FPRate >= 1 {
		return fmt.Errorf("experiments: FPRate must be in (0,1)")
	}
	if e.NativeLoadNs <= 0 || e.NativeALUNs <= 0 {
		return fmt.Errorf("experiments: native cost model must be positive")
	}
	return nil
}

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
	}, e.FPRate)
}

// newDetector builds the standard asymmetric-signature detector for a
// program.
func (e Env) newDetector(table *trace.Table) (*detect.Detector, *sig.Bloom, error) {
	s, err := e.newSignature(e.SigSlots, sig.HashMurmur)
	if err != nil {
		return nil, nil, err
	}
	d, err := detect.New(detect.Options{
		Threads: e.Threads, Backend: s, Table: table,
		Probes: e.Probes.Detect,
	})
	if err != nil {
		return nil, nil, err
	}
	return d, s, nil
}

// runProgram executes one benchmark under the given probe.
func (e Env) runProgram(name string, size splash.Size, probe exec.Probe) (splash.Program, exec.Stats, error) {
	prog, err := splash.New(name, splash.Config{Threads: e.Threads, Size: size, Seed: e.Seed})
	if err != nil {
		return nil, exec.Stats{}, err
	}
	eng := exec.New(exec.Options{Threads: e.Threads, Probe: probe, Probes: e.Probes.Engine})
	stats, err := prog.Run(eng)
	if err != nil {
		return nil, exec.Stats{}, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return prog, stats, nil
}

// profile runs one benchmark under the standard detector and returns both.
func (e Env) profile(name string, size splash.Size) (*detect.Detector, splash.Program, exec.Stats, error) {
	prog, err := splash.New(name, splash.Config{Threads: e.Threads, Size: size, Seed: e.Seed})
	if err != nil {
		return nil, nil, exec.Stats{}, err
	}
	d, _, err := e.newDetector(prog.Table())
	if err != nil {
		return nil, nil, exec.Stats{}, err
	}
	eng := exec.New(exec.Options{Threads: e.Threads, Probe: d.Probe(), Probes: e.Probes.Engine})
	stats, err := prog.Run(eng)
	if err != nil {
		return nil, nil, exec.Stats{}, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return d, prog, stats, nil
}

// newEngine builds an executor configured for this environment.
func newEngine(e Env, probe exec.Probe) *exec.Engine {
	return exec.New(exec.Options{Threads: e.Threads, Probe: probe, Probes: e.Probes.Engine})
}
