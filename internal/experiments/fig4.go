package experiments

import (
	"fmt"
	"strings"
	"time"

	"commprof/internal/splash"
)

// SlowdownRow is one bar of Fig. 4: the instrumentation slowdown of one
// SPLASH application.
type SlowdownRow struct {
	App       string
	InstrNs   int64   // measured wall time with the detector attached
	NativeNs  float64 // modeled native execution time (see Fig4 doc)
	Accesses  uint64
	WorkUnits uint64
	Slowdown  float64 // InstrNs / NativeNs
}

// Fig4Result is the full figure plus its headline aggregates.
type Fig4Result struct {
	Rows    []SlowdownRow
	Average float64 // mean of per-app slowdowns (paper: ≈225x)
	Min     float64
	Max     float64
}

// Fig4 measures the per-application slowdown of the instrumented run versus
// native execution at the given input size (the paper uses simdev with 32
// threads).
//
// The instrumented time is measured wall clock: the workload runs on the
// engine with the asymmetric-signature detector consuming every access
// inline, exactly as the paper's profiler does. The native baseline is
// modeled from the workload's operation counts — memory accesses at
// nativeLoadNs each and ALU work units at nativeALUNs each — because
// the uninstrumented *engine* is itself a simulator whose per-access cost
// exceeds native hardware; EXPERIMENTS.md documents the calibration. The
// resulting shape matches the paper: pure data-movement kernels (radix, fft)
// sit at the high end, compute-dense applications (water, raytrace, volrend)
// at the low end.
func Fig4(env Env, size splash.Size) (*Fig4Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	res := &Fig4Result{Min: -1}
	for _, app := range splash.Names() {
		row, err := slowdownOne(env, app, size)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		res.Average += row.Slowdown
		if res.Min < 0 || row.Slowdown < res.Min {
			res.Min = row.Slowdown
		}
		if row.Slowdown > res.Max {
			res.Max = row.Slowdown
		}
	}
	res.Average /= float64(len(res.Rows))
	return res, nil
}

func slowdownOne(env Env, app string, size splash.Size) (SlowdownRow, error) {
	// Best of three timed runs: single-shot wall timings on a loaded host
	// include GC and scheduler noise that only biases upward.
	const reps = 3
	var best SlowdownRow
	for r := 0; r < reps; r++ {
		prog, err := splash.New(app, splash.Config{Threads: env.Threads, Size: size, Seed: env.Seed})
		if err != nil {
			return SlowdownRow{}, err
		}
		d, _, err := env.newDetector(prog.Table())
		if err != nil {
			return SlowdownRow{}, err
		}
		t0 := time.Now()
		stats, err := prog.Run(newEngine(env, d.Probe()))
		if err != nil {
			return SlowdownRow{}, fmt.Errorf("experiments: %s instrumented: %w", app, err)
		}
		instrNs := time.Since(t0).Nanoseconds()
		if r == 0 || instrNs < best.InstrNs {
			nativeNs := float64(stats.Accesses)*nativeLoadNs + float64(stats.WorkUnits)*nativeALUNs
			if nativeNs <= 0 {
				return SlowdownRow{}, fmt.Errorf("experiments: %s: zero modeled native time", app)
			}
			best = SlowdownRow{
				App:       app,
				InstrNs:   instrNs,
				NativeNs:  nativeNs,
				Accesses:  stats.Accesses,
				WorkUnits: stats.WorkUnits,
				Slowdown:  float64(instrNs) / nativeNs,
			}
		}
	}
	return best, nil
}

// Render formats the figure as a text table with proportional bars.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — slowdown after instrumentation (avg %.0fx, range %.0fx-%.0fx)\n", r.Average, r.Min, r.Max)
	maxS := r.Max
	for _, row := range r.Rows {
		bar := int(40 * row.Slowdown / maxS)
		fmt.Fprintf(&b, "%-11s %7.0fx %s\n", row.App, row.Slowdown, strings.Repeat("#", bar))
	}
	return b.String()
}
