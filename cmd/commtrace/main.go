// Command commtrace profiles a real Go program: it source-instruments a
// target package with memory-access probes, builds it against the commprof
// runtime shim, runs it, and feeds the resulting probe stream through the
// standard analysis backend — the same detector, sharded pipeline, phase
// windows and reports the simulated workloads use.
//
// Usage:
//
//	commtrace -pkg ./testdata/workerpool -shards 4 -phases 2000 -heatmap
//	commtrace -pkg ./prog -o prog.trace          # keep the recorded trace
//	commtrace -pkg ./prog -mode live             # analyse inside the program
//	commtrace -pkg ./prog -mode emit -emit ./out # just write the module
//	commtrace -pkg ./prog -mode check            # instrument + go vet
//	commtrace -mode recover -in crashed.trace    # salvage + replay
//
// The default profile mode records the run to a trace file (compact v3
// blocks, the one format written, while the target runs; goroutine count
// patched in on close) and replays it locally, so every analysis flag works
// without rebuilding the target. A target that exits non-zero is still
// analysed — its trace, or what recover salvages of it — and commtrace exits
// with the target's code. recover, which needs no -pkg, salvages the complete
// prefix of a trace whose writer died before finalizing it into a finalized
// trace, then replays what survived.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"commprof"
	"commprof/internal/instrument"
	"commprof/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts commprof.Options
	opts.BindFlags(fs)
	var (
		pkg     = fs.String("pkg", "", "directory of the Go main package to instrument (required except for -mode recover)")
		mode    = fs.String("mode", "profile", "profile (record+replay), live (in-process analysis), emit, check or recover (salvage a truncated -in)")
		emitDir = fs.String("emit", "", "write the instrumented module to this directory (implies it is kept)")
		out     = fs.String("o", "", "keep the recorded (or recovered) trace at this path")
		in      = fs.String("in", "", "existing trace file to read (-mode recover)")
		root    = fs.String("commprof", "", "commprof repository root for the module replace directive (default: auto-detect)")
		threads = fs.Int("threads", 0, "override the goroutine count (0 = the recorded trace's own)")
		coal    = fs.Bool("coalesce", true, "statically coalesce provably redundant probes during instrumentation (-coalesce=false disables)")

		heatmap     = fs.Bool("heatmap", false, "print the global matrix heatmap")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON")
		timelineOut = fs.String("timeline", "", "write the analysis run's execution timeline as Chrome/Perfetto trace-event JSON to this file (with -mode live, the instrumented process writes it at exit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := opts.CheckFlags(); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 2
	}
	switch *mode {
	case "profile", "live", "emit", "check", "recover":
	default:
		fmt.Fprintf(stderr, "commtrace: unknown mode %q\n", *mode)
		return 2
	}
	var tel *commprof.Telemetry
	if *timelineOut != "" {
		tel = commprof.NewTelemetry()
		tel.EnableTimeline()
		opts.Telemetry = tel
	}

	replay := func(tracePath string) int {
		return replayFile(tracePath, *threads, opts, *timelineOut, *jsonOut, *heatmap, stdout, stderr)
	}

	// recover operates on an existing trace; no target package,
	// instrumentation or build involved. It writes -o while still reading
	// -in, so the two must be different files.
	if a, err := os.Stat(*in); err == nil {
		if b, err := os.Stat(*out); err == nil && os.SameFile(a, b) {
			fmt.Fprintf(stderr, "commtrace: -o %s is the -in file; the trace is rewritten as it is read, so write it elsewhere\n", *out)
			return 2
		}
	}
	if *mode == "recover" {
		return recoverTrace(*in, *out, replay, stderr)
	}

	if *mode == "live" {
		// The instrumented program prints the report itself, as text, over
		// its own goroutine count, from memory: what only this process could
		// honour is refused rather than ignored.
		refused := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "json", "heatmap", "threads", "o":
				refused += " -" + f.Name
			}
		})
		if refused != "" {
			fmt.Fprintf(stderr, "commtrace:%s: not available with -mode live, where the instrumented program analyses and prints by itself; use -mode profile\n", refused)
			return 2
		}
	}

	if *pkg == "" {
		fmt.Fprintln(stderr, "commtrace: -pkg is required")
		return 2
	}

	res, err := instrument.DirOpts(*pkg, instrument.Options{DisableCoalesce: !*coal})
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	fmt.Fprintf(stderr, "commtrace: instrumented package %s: %d probes across %d regions (%d coalesced away)\n",
		res.PackageName, res.Probes, res.Table.Len(), res.Coalesced)

	repoRoot, err := commprofRoot(*root)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}

	moduleDir := *emitDir
	if moduleDir == "" {
		tmp, err := os.MkdirTemp("", "commtrace-*")
		if err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		moduleDir = tmp
	}
	if err := instrument.WriteModule(res, moduleDir, repoRoot); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}

	switch *mode {
	case "emit":
		if *emitDir == "" {
			fmt.Fprintln(stderr, "commtrace: -mode emit requires -emit dir")
			return 2
		}
		fmt.Fprintf(stderr, "commtrace: wrote instrumented module to %s\n", moduleDir)
		return 0
	case "check":
		if msg, err := goTool(moduleDir, "vet", "."); err != nil {
			fmt.Fprintf(stderr, "commtrace: vet failed:\n%s\n", msg)
			return 1
		}
		fmt.Fprintf(stderr, "commtrace: %s builds and vets clean\n", res.PackageName)
		return 0
	}

	bin := filepath.Join(moduleDir, "commtrace-target.bin")
	if msg, err := goTool(moduleDir, "build", "-o", bin, "."); err != nil {
		fmt.Fprintf(stderr, "commtrace: build failed:\n%s\n", msg)
		return 1
	}

	if *mode == "live" {
		// The shim analyses in-process at exit; the analyser flags that were
		// set travel as one variable.
		env := append(os.Environ(), "COMMPROF_TRACE=", commprof.Environ(fs))
		if *timelineOut != "" {
			env = append(env, "COMMPROF_TIMELINE="+*timelineOut)
		}
		return targetExit(runBin(bin, env, stdout, stderr), stderr)
	}

	tracePath := *out
	if tracePath == "" {
		tracePath = filepath.Join(moduleDir, "run.trace")
	}
	code := targetExit(runBin(bin, append(os.Environ(), "COMMPROF_TRACE="+tracePath), stdout, stderr), stderr)
	if code == 0 {
		return replay(tracePath)
	}
	// The target failed, which is when its profile is wanted most: analyse
	// what it recorded — the shim finalizes the trace on os.Exit and on
	// SIGINT/SIGTERM; a target that died without Shutdown leaves the blocks
	// written so far — and pass the target's own exit code on.
	if f, err := os.Open(tracePath); err != nil {
		fmt.Fprintln(stderr, "commtrace: the target recorded nothing")
	} else {
		_, err := trace.NewDecoder(f)
		f.Close()
		if err == nil {
			replay(tracePath)
		} else {
			recoverTrace(tracePath, "", replay, stderr)
		}
	}
	return code
}

// targetExit maps the outcome of running the target to commtrace's own exit
// code: the target's, or 1 when it has none to give (it could not be started,
// or a signal killed it).
func targetExit(err error, stderr io.Writer) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "commtrace: target:", err)
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() > 0 {
		return exit.ExitCode()
	}
	return 1
}

// replayFile runs the standard analysis over the trace file at path, writes
// the run's timeline if one was asked for, and prints the report as JSON or
// as the text summary. Returns a process exit code.
func replayFile(path string, threads int, opts commprof.Options, timelineOut string, jsonOut, heatmap bool, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer f.Close()
	rep, err := commprof.Replay(f, threads, opts)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if err := opts.Telemetry.WriteTimelineFile(timelineOut); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, rep.Summary())
	if heatmap {
		fmt.Fprintln(stdout, "\nglobal communication matrix:")
		fmt.Fprint(stdout, rep.Global.Heatmap())
	}
	return 0
}

// recoverTrace salvages the decodable prefix of a damaged or unfinalized
// trace (writer died before Close): the tolerant decoder drains once into a
// finalized v3 trace — at out, or a temporary file — it reports what
// survived, and replays that file through the standard analysis backend.
func recoverTrace(in, out string, replay func(tracePath string) int, stderr io.Writer) int {
	if in == "" {
		fmt.Fprintln(stderr, "commtrace: -mode recover requires -in")
		return 2
	}
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer f.Close()
	dec, err := trace.NewDecoderTolerant(f)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	salvaged := out
	if salvaged == "" {
		tmp, err := os.MkdirTemp("", "commtrace-recover-*")
		if err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		salvaged = filepath.Join(tmp, "salvaged.trace")
	}
	g, err := os.Create(salvaged)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer g.Close() // error paths; the success path checks Close below
	enc, err := trace.NewDynamicEncoder(g, dec.Table())
	if err == nil {
		// The header's count when the input was finalized; Close raises it
		// to max(thread)+1 over the salvaged records otherwise.
		enc.SetThreads(dec.Threads())
		err = dec.ForEach(enc.Write)
	}
	if err == nil {
		err = enc.Close()
	}
	if err == nil {
		err = g.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	records := enc.Written()
	declared := fmt.Sprintf("%d declared", dec.DeclaredLen())
	if dec.Unfinalized() {
		declared = "header unfinalized"
	}
	fmt.Fprintf(stderr, "commtrace: recovered %d complete records (%s), %d goroutines\n",
		records, declared, max(dec.Threads(), dec.SeenThreads()))
	if err := dec.SalvageErr(); err != nil {
		fmt.Fprintf(stderr, "commtrace: recovery stopped at: %v\n", err)
	}
	if out != "" {
		fmt.Fprintf(stderr, "commtrace: wrote finalized v%d trace to %s\n", trace.DefaultVersion, out)
	}
	if records == 0 {
		fmt.Fprintln(stderr, "commtrace: nothing to replay")
		return 0
	}
	return replay(salvaged)
}

// commprofRoot resolves the repository directory the emitted module's
// replace directive points at: the flag value if given, else the nearest
// ancestor of the working directory whose go.mod declares module commprof.
func commprofRoot(flagVal string) (string, error) {
	if flagVal != "" {
		return filepath.Abs(flagVal)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module commprof") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cannot locate the commprof repository from the working directory; pass -commprof <dir>")
		}
		dir = parent
	}
}

// goTool runs the go command in dir, returning combined output on failure.
func goTool(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// runBin executes the instrumented binary with the given environment, the
// program's own output passing through.
func runBin(bin string, env []string, stdout, stderr io.Writer) error {
	cmd := exec.Command(bin)
	cmd.Env = env
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	return cmd.Run()
}
