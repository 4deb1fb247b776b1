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
//	commtrace -pkg ./prog -mode overhead -runs 5 # probe-cost JSON
//	commtrace -mode recode -in old.trace -o new.trace -trace-format 3
//	commtrace -mode recover -in crashed.trace    # salvage + replay
//
// The default profile mode records the run to a trace file (compact v3
// blocks by default, -trace-format 2 for fixed records; goroutine count
// patched in on close) and replays it locally, so every analysis flag works
// without rebuilding the target. recode transcodes an existing trace
// between codec versions; recover salvages the complete prefix of a trace
// whose writer died before finalizing it, then replays what survived.
// Neither needs -pkg.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

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
	var (
		pkg     = fs.String("pkg", "", "directory of the Go main package to instrument (required except for -mode recode/recover)")
		mode    = fs.String("mode", "profile", "profile (record+replay), live (in-process analysis), emit, check, overhead, recode (transcode -in between codec versions) or recover (salvage a truncated -in)")
		emitDir = fs.String("emit", "", "write the instrumented module to this directory (implies it is kept)")
		out     = fs.String("o", "", "keep the recorded (or recoded/recovered) trace at this path")
		in      = fs.String("in", "", "existing trace file to read (-mode recode/recover)")
		traceFm = fs.Int("trace-format", 0, "trace codec version to write: 0 = default (v3 compact blocks); profile/recover accept 2 or 3, recode also 1")
		root    = fs.String("commprof", "", "commprof repository root for the module replace directive (default: auto-detect)")
		runs    = fs.Int("runs", 3, "timing repetitions for -mode overhead")
		threads = fs.Int("threads", 0, "override the goroutine count (0 = the recorded trace's own)")
		coal    = fs.Bool("coalesce", true, "statically coalesce provably redundant probes during instrumentation (-coalesce=false disables)")

		shards      = fs.Int("shards", 0, "analysis shards of the analysis engine (0 = in-thread analysis)")
		phases      = fs.Uint64("phases", 0, "phase window in logical time units (0 = off)")
		gran        = fs.Uint("granularity", 0, "analysis granularity in address bits (0 = per address, 6 = 64B lines)")
		slots       = fs.Uint64("sig", 1<<20, "signature slots")
		fpRate      = fs.Float64("fpr", 0.001, "bloom-filter false-positive rate")
		redunB      = fs.Uint("redundancy-bits", 0, "redundancy fast-path cache bits (0 = off)")
		heatmap     = fs.Bool("heatmap", false, "print the global matrix heatmap")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON")
		timelineOut = fs.String("timeline", "", "write the analysis run's execution timeline as Chrome/Perfetto trace-event JSON to this file (with -mode live, the instrumented process writes it at exit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := commprof.Options{
		SignatureSlots:  *slots,
		BloomFPRate:     *fpRate,
		PhaseWindow:     *phases,
		GranularityBits: *gran,
		AnalysisShards:  *shards,

		RedundancyCacheBits: *redunB,
		TraceFormat:         *traceFm,
	}
	var tel *commprof.Telemetry
	if *timelineOut != "" {
		tel = commprof.NewTelemetry()
		tel.EnableTimeline()
		opts.Telemetry = tel
	}

	// recode and recover operate on an existing trace; no target package,
	// instrumentation or build involved.
	switch *mode {
	case "recode":
		return recode(*in, *out, *traceFm, stderr)
	case "recover":
		return recoverTrace(*in, *out, *traceFm, *threads, opts, *jsonOut, *heatmap, *timelineOut, stdout, stderr)
	}

	if *pkg == "" {
		fmt.Fprintln(stderr, "commtrace: -pkg is required")
		return 2
	}
	if *traceFm != 0 && *traceFm != 2 && *traceFm != 3 {
		fmt.Fprintf(stderr, "commtrace: -trace-format %d: the recording shim writes versions 2 or 3 (v1 is recode-only)\n", *traceFm)
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
	case "overhead":
		return overhead(*pkg, res, moduleDir, repoRoot, *runs, stdout, stderr)
	case "live", "profile":
		// handled below
	default:
		fmt.Fprintf(stderr, "commtrace: unknown mode %q\n", *mode)
		return 2
	}

	bin := filepath.Join(moduleDir, "commtrace-target.bin")
	if msg, err := goTool(moduleDir, "build", "-o", bin, "."); err != nil {
		fmt.Fprintf(stderr, "commtrace: build failed:\n%s\n", msg)
		return 1
	}

	if *mode == "live" {
		// The shim analyses in-process at exit; analysis knobs travel by env.
		env := append(os.Environ(),
			"COMMPROF_TRACE=",
			fmt.Sprintf("COMMPROF_SHARDS=%d", *shards),
			fmt.Sprintf("COMMPROF_PHASES=%d", *phases),
			fmt.Sprintf("COMMPROF_GRANULARITY=%d", *gran),
			fmt.Sprintf("COMMPROF_REDUNDANCY_BITS=%d", *redunB),
			fmt.Sprintf("COMMPROF_SIG=%d", *slots),
		)
		if *timelineOut != "" {
			env = append(env, "COMMPROF_TIMELINE="+*timelineOut)
		}
		if err := runBin(bin, env, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		return 0
	}

	tracePath := *out
	if tracePath == "" {
		tracePath = filepath.Join(moduleDir, "run.trace")
	}
	env := append(os.Environ(), "COMMPROF_TRACE="+tracePath)
	if *traceFm != 0 {
		env = append(env, fmt.Sprintf("COMMPROF_TRACE_FORMAT=%d", *traceFm))
	}
	if err := runBin(bin, env, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}

	f, err := os.Open(tracePath)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer f.Close()
	rep, err := commprof.Replay(f, *threads, opts)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if rc := writeTimeline(tel, *timelineOut, stderr); rc != 0 {
		return rc
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, rep.Summary())
	if *heatmap {
		fmt.Fprintln(stdout, "\nglobal communication matrix:")
		fmt.Fprint(stdout, rep.Global.Heatmap())
	}
	return 0
}

// recode transcodes an existing trace between codec versions: the input is
// decoded in full (any version) and re-encoded as version (1, 2 or 3, 0 =
// default v3). Region source positions and the header thread count do not
// exist in the v1 layout and are dropped when downgrading.
func recode(in, out string, version int, stderr io.Writer) int {
	if in == "" || out == "" {
		fmt.Fprintln(stderr, "commtrace: -mode recode requires -in and -o")
		return 2
	}
	if version == 0 {
		version = trace.DefaultVersion
	}
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	s := &trace.Stream{Table: dec.Table()}
	if err := dec.ForEach(func(a trace.Access) error {
		s.Accesses = append(s.Accesses, a)
		return nil
	}); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if dec.Version() >= 2 && version == 1 {
		fmt.Fprintln(stderr, "commtrace: note: v1 has no thread count or region file:line; downgrade drops them")
	}
	g, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if err := s.EncodeVersion(g, version, dec.Threads()); err != nil {
		g.Close()
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if err := g.Close(); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	inSize, outSize := fileSize(in), fileSize(out)
	ratio := 0.0
	if outSize > 0 {
		ratio = float64(inSize) / float64(outSize)
	}
	fmt.Fprintf(stderr, "commtrace: recoded %d records v%d -> v%d: %d -> %d bytes (%.2fx)\n",
		len(s.Accesses), dec.Version(), version, inSize, outSize, ratio)
	return 0
}

// recoverTrace salvages the decodable prefix of a damaged or unfinalized
// trace (writer died before Close): it reports what survived, optionally
// persists it as a finalized trace at out, and replays it through the
// standard analysis backend.
func recoverTrace(in, out string, version, threads int, opts commprof.Options, jsonOut, heatmap bool, timelineOut string, stdout, stderr io.Writer) int {
	if in == "" {
		fmt.Fprintln(stderr, "commtrace: -mode recover requires -in")
		return 2
	}
	if version == 0 {
		version = trace.DefaultVersion
	}
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer f.Close()
	s, rec, err := trace.DecodeTolerant(f)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	declared := fmt.Sprintf("%d declared", rec.Declared)
	if rec.Unfinalized {
		declared = "header unfinalized"
	}
	fmt.Fprintf(stderr, "commtrace: recovered %d complete records (%s), %d goroutines\n",
		rec.Records, declared, rec.Threads)
	if rec.Err != nil {
		fmt.Fprintf(stderr, "commtrace: recovery stopped at: %v\n", rec.Err)
	}
	if out != "" {
		g, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		if err := s.EncodeVersion(g, version, rec.Threads); err != nil {
			g.Close()
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		if err := g.Close(); err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "commtrace: wrote finalized v%d trace to %s\n", version, out)
	}
	if rec.Records == 0 {
		fmt.Fprintln(stderr, "commtrace: nothing to replay")
		return 0
	}
	if threads == 0 {
		threads = rec.Threads
	}
	var buf bytes.Buffer
	if err := s.EncodeVersion(&buf, trace.DefaultVersion, rec.Threads); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	rep, err := commprof.Replay(&buf, threads, opts)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	if rc := writeTimeline(opts.Telemetry, timelineOut, stderr); rc != 0 {
		return rc
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

// writeTimeline writes the analysis run's execution timeline as trace-event
// JSON to path; a no-op when either the path or the telemetry handle is
// absent. Returns a process exit code.
func writeTimeline(tel *commprof.Telemetry, path string, stderr io.Writer) int {
	if tel == nil || path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	err = tel.WriteTimeline(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	return 0
}

// fileSize returns a path's size in bytes, 0 on error.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
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

// overhead measures the probe cost: it builds the original package and the
// instrumented one side by side, times -runs executions of each (recording
// to a throwaway trace), and prints one JSON object with the medians.
func overhead(pkgDir string, res *instrument.Result, moduleDir, repoRoot string, runs int, stdout, stderr io.Writer) int {
	if runs < 1 {
		runs = 1
	}
	baseDir, err := os.MkdirTemp("", "commtrace-base-*")
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	defer os.RemoveAll(baseDir)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(pkgDir, n))
		if err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
		if err := os.WriteFile(filepath.Join(baseDir, n), b, 0o644); err != nil {
			fmt.Fprintln(stderr, "commtrace:", err)
			return 1
		}
	}
	gomod := "module commtrace-baseline\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(baseDir, "go.mod"), []byte(gomod), 0o644); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}

	baseBin := filepath.Join(baseDir, "base.bin")
	if msg, err := goTool(baseDir, "build", "-o", baseBin, "."); err != nil {
		fmt.Fprintf(stderr, "commtrace: baseline build failed:\n%s\n", msg)
		return 1
	}
	instBin := filepath.Join(moduleDir, "inst.bin")
	if msg, err := goTool(moduleDir, "build", "-o", instBin, "."); err != nil {
		fmt.Fprintf(stderr, "commtrace: instrumented build failed:\n%s\n", msg)
		return 1
	}

	tracePath := filepath.Join(moduleDir, "overhead.trace")
	time1, err := timeRuns(baseBin, os.Environ(), runs)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	time2, err := timeRuns(instBin, append(os.Environ(), "COMMPROF_TRACE="+tracePath), runs)
	if err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}

	ratio := 0.0
	if time1 > 0 {
		ratio = float64(time2) / float64(time1)
	}
	report := map[string]any{
		"pkg":             filepath.Base(pkgDir),
		"runs":            runs,
		"probes":          res.Probes,
		"coalesced":       res.Coalesced,
		"regions":         res.Table.Len(),
		"baseline_ns":     time1,
		"instrumented_ns": time2,
		"overhead_x":      ratio,
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(stderr, "commtrace:", err)
		return 1
	}
	return 0
}

// timeRuns executes bin n times and returns the median wall-clock
// nanoseconds; program output is discarded.
func timeRuns(bin string, env []string, n int) (int64, error) {
	times := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin)
		cmd.Env = env
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("timing %s: %w", filepath.Base(bin), err)
		}
		times = append(times, time.Since(start).Nanoseconds())
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}
