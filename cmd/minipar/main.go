// Command minipar compiles a MiniPar source file through the full static
// pipeline (loop annotation, constant folding, lowering, instrumentation,
// verification), executes it on the simulated thread engine with the
// profiler attached (commprof.ProfileMiniPar), and reports the program's
// outputs and per-loop communication patterns.
//
// Usage:
//
//	minipar -threads 8 program.mp
//	minipar -dis program.mp           # print the instrumented IR
//	minipar -only "kernel,reduce" program.mp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commprof"
	"commprof/internal/passes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minipar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads = fs.Int("threads", 8, "simulated thread count")
		slots   = fs.Uint64("sig", 1<<20, "signature slots")
		dis     = fs.Bool("dis", false, "print the instrumented IR and exit")
		heat    = fs.Bool("heatmap", false, "print per-hotspot heatmaps")
		onlyF   = fs.String("only", "", "comma-separated functions to instrument (default: all)")
		coal    = fs.Bool("coalesce", true, "statically coalesce provably redundant probes (-coalesce=false disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: minipar [flags] program.mp")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "minipar:", err)
		return 1
	}
	var only []string // nil instruments every function
	if *onlyF != "" {
		for _, f := range strings.Split(*onlyF, ",") {
			only = append(only, strings.TrimSpace(f))
		}
	}
	if *dis {
		mod, _, _, err := passes.CompileWith(string(src), passes.Options{Only: only, Coalesce: *coal})
		if err != nil {
			fmt.Fprintln(stderr, "minipar:", err)
			return 1
		}
		fmt.Fprint(stdout, mod.Disassemble())
		return 0
	}
	rep, outs, err := commprof.ProfileMiniPar(string(src), *threads, only, commprof.Options{
		SignatureSlots: *slots, DisableCoalesce: !*coal, MaxHotspots: 5,
	})
	if err != nil {
		fmt.Fprintln(stderr, "minipar:", err)
		return 1
	}

	if len(outs) > 0 {
		fmt.Fprintln(stdout, "program output:")
		for _, o := range outs {
			fmt.Fprintf(stdout, "  T%d: %d\n", o.Thread, o.Value)
		}
	}
	fmt.Fprintf(stdout, "\n%d accesses, %d inter-thread RAW deps, %d bytes communicated\n",
		rep.Accesses, rep.Dependencies, rep.CommBytes)
	if c := rep.Coalescing; c != nil && c.StaticElided+c.StaticOnce > 0 {
		fmt.Fprintf(stdout, "coalescing: %d probe sites elided, %d once-per-loop-entry; %d of %d accesses skipped (%.1f%%)\n",
			c.StaticElided, c.StaticOnce, c.Elided, rep.Accesses, 100*c.ElisionRate())
	}

	fmt.Fprintln(stdout, "\nnested communication structure:")
	matrices := map[string]commprof.Matrix{}
	for _, reg := range rep.Regions {
		fmt.Fprintf(stdout, "%s%s %s: own=%dB cum=%dB accesses=%d\n",
			strings.Repeat("  ", reg.Depth), reg.Kind, reg.Name, reg.OwnBytes, reg.CumulativeBytes, reg.Accesses)
		matrices[reg.Name] = reg.Matrix
	}
	for i, h := range rep.Hotspots {
		fmt.Fprintf(stdout, "\nhotspot %d: %s — %d bytes (%.1f%%), active=%d/%d balance=%.2f\n",
			i+1, h.Region, h.Bytes, 100*h.Share, h.ActiveThreads, rep.Threads, h.BalanceIndex)
		if *heat {
			fmt.Fprint(stdout, matrices[h.Region].Heatmap())
		}
	}
	if *heat && len(rep.Hotspots) == 0 {
		fmt.Fprintln(stdout, "\nglobal matrix:")
		fmt.Fprint(stdout, rep.Global.Heatmap())
	}
	return 0
}
