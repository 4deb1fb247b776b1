// Command commbench regenerates the paper's tables and figures from live
// runs of this repository's profiler and workloads. Every experiment of the
// evaluation section has an ID (experiments.Experiments; DESIGN.md §4 maps
// them to the paper).
//
// Usage:
//
//	commbench -listexp             # the experiment IDs
//	commbench -exp fig4            # one experiment
//	commbench -exp all             # every experiment, in -listexp order
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"commprof"
	"commprof/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	env := experiments.DefaultEnv()
	var (
		exp     = fs.String("exp", "", "experiment ID (or 'all'); see -listexp")
		listExp = fs.Bool("listexp", false, "list experiment IDs and exit")
	)
	fs.IntVar(&env.Threads, "threads", env.Threads, "simulated thread count")
	fs.Int64Var(&env.Seed, "seed", env.Seed, "workload random seed")
	fs.Uint64Var(&env.SigSlots, "sig", env.SigSlots, "signature slots for non-sweep experiments")
	var tf commprof.TelemetryFlags
	tf.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		ids[i] = e.ID
	}
	if *listExp {
		fmt.Fprintln(stdout, strings.Join(ids, "\n"))
		return 0
	}

	tel, code := tf.Open()
	if code != 0 {
		return code
	}
	defer tel.Close() // Finish closes it too; this covers the error returns
	env.Probes = tel.Probes()

	selected := experiments.Experiments
	switch *exp {
	case "":
		fmt.Fprintln(stderr, "commbench: -exp is required; one of", strings.Join(ids, ", "), "or all")
		return 2
	case "all":
	default:
		i := slices.Index(ids, *exp)
		if i < 0 {
			fmt.Fprintln(stderr, "commbench: unknown experiment", *exp, "; known:", strings.Join(ids, ", "))
			return 2
		}
		selected = selected[i : i+1]
	}
	for _, e := range selected {
		span := tel.Span("exp:" + e.ID)
		r, err := e.Run(env)
		span.End()
		if err != nil {
			fmt.Fprintf(stderr, "commbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", e.ID, r.Render())
	}
	return tf.Finish(tel, stdout)
}
