// Command commbench regenerates the paper's tables and figures from live
// runs of this repository's profiler and workloads. Every experiment of the
// evaluation section has an ID; see DESIGN.md §4 for the index.
//
// Usage:
//
//	commbench -exp fig4            # slowdown per application
//	commbench -exp fig5a           # memory comparison, simdev
//	commbench -exp fig5b           # memory comparison, simlarge
//	commbench -exp fpr             # signature false-positive sweep
//	commbench -exp fig6            # lu_ncb nested patterns
//	commbench -exp fig7            # water_nsquared nested patterns
//	commbench -exp fig8            # hotspot thread loads
//	commbench -exp table1          # profiler-property comparison
//	commbench -exp patterns        # §VI pattern-detection accuracy
//	commbench -exp eq2             # signature memory model
//	commbench -exp coalesce        # static probe-coalescing ablation
//	commbench -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"commprof"
	"commprof/internal/experiments"
	"commprof/internal/splash"
)

type runner func(env experiments.Env) (string, error)

var runners = map[string]runner{
	"fig2": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig2(env)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig4": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig4(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig5a": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig5(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig5b": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig5(env, splash.SimLarge)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fpr": func(env experiments.Env) (string, error) {
		r, err := experiments.FPRSweep(env, splash.SimDev, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig6": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig6(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig7": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig7(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig8": func(env experiments.Env) (string, error) {
		r, err := experiments.Fig8(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"table1": func(env experiments.Env) (string, error) {
		r, err := experiments.Table1(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"patterns": func(env experiments.Env) (string, error) {
		r, err := experiments.Patterns(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"phases": func(env experiments.Env) (string, error) {
		r, err := experiments.Phases(env, "radix", splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"sampling": func(env experiments.Env) (string, error) {
		r, err := experiments.SamplingAblation(env, "lu_ncb", splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"sparse": func(env experiments.Env) (string, error) {
		r, err := experiments.SparseAblation(env, splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"queue": func(env experiments.Env) (string, error) {
		r, err := experiments.Queue(env, "radix", splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"hash": func(env experiments.Env) (string, error) {
		r, err := experiments.HashAblation(env, splash.SimDev, 0)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"throughput": func(env experiments.Env) (string, error) {
		r, err := experiments.Throughput(env, "ocean_cp", splash.SimDev)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"replay": func(env experiments.Env) (string, error) {
		r, err := experiments.StreamReplay(env, "radix", splash.SimDev, 4)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"coalesce": func(env experiments.Env) (string, error) {
		r, err := experiments.Coalesce(env)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"eq2": func(env experiments.Env) (string, error) {
		return experiments.Eq2(env), nil
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment ID (or 'all'); see -listexp")
		listExp = fs.Bool("listexp", false, "list experiment IDs and exit")
		threads = fs.Int("threads", 32, "simulated thread count")
		seed    = fs.Int64("seed", 42, "workload random seed")
		slots   = fs.Uint64("sig", 1<<20, "signature slots for non-sweep experiments")
		coal    = fs.Bool("coalesce", true, "statically coalesce redundant probes in MiniPar-pipeline experiments (-coalesce=false disables)")
	)
	var tf commprof.TelemetryFlags
	tf.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *listExp {
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	env := experiments.DefaultEnv()
	env.Threads = *threads
	env.Seed = *seed
	env.SigSlots = *slots
	env.DisableCoalesce = !*coal

	tel, code := tf.Open()
	if code != 0 {
		return code
	}
	defer tel.Close() // Finish closes it too; this covers the error returns
	env.Probes = tel.Probes()

	var selected []string
	switch *exp {
	case "":
		fmt.Fprintln(stderr, "commbench: -exp is required; one of", strings.Join(ids, ", "), "or all")
		return 2
	case "all":
		selected = ids
	default:
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintln(stderr, "commbench: unknown experiment", *exp, "; known:", strings.Join(ids, ", "))
			return 2
		}
		selected = []string{*exp}
	}
	for _, id := range selected {
		span := tel.Span("exp:" + id)
		out, err := runners[id](env)
		span.End()
		if err != nil {
			fmt.Fprintf(stderr, "commbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", id, out)
	}
	return tf.Finish(tel, stdout)
}
