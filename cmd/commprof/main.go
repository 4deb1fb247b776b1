// Command commprof profiles one of the bundled SPLASH-2-style benchmarks and
// prints its nested communication patterns, hotspot thread loads, detected
// phases and pattern classification. It can also record the run's access
// trace for later offline analysis, or replay a previously recorded trace.
//
// Usage:
//
//	commprof -app lu_ncb -threads 32 -size simdev
//	commprof -list
//	commprof -app fft -heatmap -classify
//	commprof -app ocean_cp -shards 8
//	commprof -app fft -shards 4 -phases 5000 -telemetry-addr :9090
//	commprof -app radix -record radix.trace
//	commprof -replay radix.trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commprof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts commprof.Options
	opts.BindFlags(fs)
	var tf commprof.TelemetryFlags
	tf.BindFlags(fs)
	var (
		list     = fs.Bool("list", false, "list available benchmarks and exit")
		heatmap  = fs.Bool("heatmap", false, "print the global matrix heatmap")
		csv      = fs.Bool("csv", false, "print the global matrix as CSV")
		classify = fs.Bool("classify", false, "classify the global matrix's parallel pattern")
		jsonOut  = fs.Bool("json", false, "emit the full report as JSON instead of text")
		record   = fs.String("record", "", "also write the access trace to this file")
		replay   = fs.String("replay", "", "analyse a recorded trace file instead of running a benchmark")
	)
	fs.StringVar(&opts.Workload, "app", "", "benchmark to profile (see -list)")
	fs.IntVar(&opts.Threads, "threads", 0, "simulated thread count (0: 32 under -app, the trace's declared count under -replay)")
	fs.StringVar(&opts.InputSize, "size", "simdev", "input size: simdev, simsmall or simlarge")
	fs.Int64Var(&opts.Seed, "seed", 42, "workload random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := opts.CheckFlags(); err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 2
	}
	if *list {
		for _, n := range commprof.Workloads() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	tel, code := tf.Open()
	if code != 0 {
		return code
	}
	defer tel.Close() // Finish closes it too; this covers the error returns
	opts.Telemetry = tel
	// finish ends the text output with the -telemetry dump, a blank line
	// before it. Under -json the report carries the snapshot instead.
	finish := func() int {
		if tf.Print {
			fmt.Fprintln(stdout)
		}
		return tf.Finish(tel, stdout)
	}

	var rep *commprof.Report
	var err error
	switch {
	case *replay != "":
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fmt.Fprintln(stderr, "commprof:", ferr)
			return 1
		}
		defer f.Close()
		rep, err = commprof.Replay(f, opts.Threads, opts)
	case opts.Workload == "all":
		if code := runAll(opts, stdout, stderr); code != 0 {
			return code
		}
		return finish()
	case opts.Workload == "":
		fmt.Fprintln(stderr, "commprof: -app is required (or -list/-replay); available:", strings.Join(commprof.Workloads(), ", "))
		return 2
	case *record != "":
		f, ferr := os.Create(*record)
		if ferr != nil {
			fmt.Fprintln(stderr, "commprof:", ferr)
			return 1
		}
		rep, err = commprof.Record(opts, f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
	default:
		rep, err = commprof.Profile(opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		return tf.Finish(tel, nil)
	}
	fmt.Fprint(stdout, rep.Summary())
	if *heatmap {
		fmt.Fprintln(stdout, "\nglobal communication matrix:")
		fmt.Fprint(stdout, rep.Global.Heatmap())
	}
	if *csv {
		fmt.Fprint(stdout, rep.Global.CSV())
	}
	if *classify {
		c, err := commprof.NewPatternClassifier(opts.Seed)
		if err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		class, err := c.Classify(rep.Global)
		if err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\npattern class: %s\n", class)
	}
	return finish()
}

// runAll prints a one-line summary per bundled benchmark.
func runAll(opts commprof.Options, stdout, stderr io.Writer) int {
	classifier, err := commprof.NewPatternClassifier(opts.Seed)
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-11s %10s %9s %12s %-22s %s\n",
		"app", "accesses", "deps", "comm bytes", "top hotspot", "hotspot class")
	for _, app := range commprof.Workloads() {
		o := opts
		o.Workload = app
		rep, err := commprof.Profile(o)
		if err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		hotspot, class := "-", "-"
		if len(rep.Hotspots) > 0 {
			hotspot = rep.Hotspots[0].Region
			for _, r := range rep.Regions {
				if r.Name == hotspot {
					if c, err := classifier.Classify(r.Matrix); err == nil {
						class = c
					}
				}
			}
		}
		fmt.Fprintf(stdout, "%-11s %10d %9d %12d %-22s %s\n",
			app, rep.Accesses, rep.Dependencies, rep.CommBytes, hotspot, class)
	}
	return 0
}
