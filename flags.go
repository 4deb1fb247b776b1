package commprof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"commprof/internal/redundancy"
)

// envOptions names the one environment variable analyser options cross into
// an instrumented program by: the analyser flags, spelled as on the command
// line (see Environ and OptionsFromEnv).
const envOptions = "COMMPROF_OPTS"

// BindFlags declares the analyser's flags on fs, parsing straight into o.
// This table is the one place their names, defaults and meanings live: the
// command-line tools bind it beside their own workload and output flags, and
// the environment codec (Environ, OptionsFromEnv) is the same table parsed
// from a string. Call CheckFlags after fs.Parse.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&o.SignatureSlots, "sig", 1<<20, "signature slots (n)")
	fs.Uint64Var(&o.PhaseWindow, "phases", 0, "phase window in logical time units: enables §V-A4 segmentation plus the classified pattern timeline, composes with -shards (0 = off)")
	fs.Var(sampleFlag{o}, "sample", "read-sampling period: analyse 1 of every `N` reads (0 = all)")
	fs.UintVar(&o.GranularityBits, "granularity", 0, "analysis granularity in address bits (0 = per address, 6 = 64B lines)")
	fs.IntVar(&o.AnalysisShards, "shards", 0, "analysis shards K of the analysis engine (0 = the paper's in-thread analysis, K > 0 = K shard workers)")
	fs.UintVar(&o.RedundancyCacheBits, "redundancy-bits", 0, fmt.Sprintf("redundancy fast-path cache size in bits: 2^N entries (12 B each) per analyser filtering same-thread repeated accesses before the signature (0 = off, at most %d)", redundancy.MaxBits))
	fs.Var(accuracyBitsFlag{o}, "accuracy-bits", "accuracy-monitor sample slice: shadow 1 of every 2^`N` granules with an exact detector (0 = every granule); setting it at all enables the monitor, at the default target unless -accuracy-target names one")
	fs.Var(rateFlag{&o.AccuracyTargetFPR}, "accuracy-target", "enable the online signature-accuracy monitor and alarm when the estimated FPR crosses this `rate`, e.g. 0.05 (0 = off unless -accuracy-bits is set)")
}

// CheckFlags reports a parsed combination of analyser flags no run would
// honour, so that a frontend refuses it by name instead of ignoring it.
func (o *Options) CheckFlags() error {
	switch {
	case o.AnalysisShards < 0:
		return fmt.Errorf("-shards must be non-negative, got %d", o.AnalysisShards)
	}
	return nil
}

// TelemetryFlags are the command-line tools' telemetry flags, declared once by
// BindFlags. Open makes the Telemetry handle they ask for and Finish exports
// and closes it, so every tool wires its telemetry the same way.
type TelemetryFlags struct {
	Print    bool   // -telemetry: print the Prometheus text after the run
	Addr     string // -telemetry-addr: serve the live endpoints here
	Dump     string // -telemetry-dump: write the Prometheus text to this file
	Timeline string // -timeline: write the execution timeline to this file
	Pprof    bool   // -pprof: mount net/http/pprof on the -telemetry-addr server

	fs *flag.FlagSet // names the tool and takes its messages
}

// BindFlags declares the telemetry flags on fs, parsing straight into f.
// Open and Finish print their messages on fs's output, after its name.
func (f *TelemetryFlags) BindFlags(fs *flag.FlagSet) {
	f.fs = fs
	fs.BoolVar(&f.Print, "telemetry", false, "collect profiler self-observability metrics and print a Prometheus-text dump after the run")
	fs.StringVar(&f.Addr, "telemetry-addr", "", "serve live /metrics, /metrics.json and /progress on this address during the run (e.g. :9090, :0 picks a port)")
	fs.StringVar(&f.Dump, "telemetry-dump", "", "write a final Prometheus-text metrics snapshot to this file at exit (for scrape-less CI environments)")
	fs.StringVar(&f.Timeline, "timeline", "", "write the run's execution timeline to this file as Chrome/Perfetto trace-event JSON (implies telemetry)")
	fs.BoolVar(&f.Pprof, "pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the telemetry server (needs -telemetry-addr)")
}

// Open returns the Telemetry handle the parsed flags ask for, nil when none
// is set. Under -telemetry-addr it starts the server and prints its address.
// A non-zero code is the tool's exit code, its reason already printed: 2 for
// -pprof without -telemetry-addr, 1 when the server cannot start.
func (f *TelemetryFlags) Open() (tel *Telemetry, code int) {
	if f.Pprof && f.Addr == "" {
		fmt.Fprintf(f.fs.Output(), "%s: -pprof mounts its handlers on the telemetry server: set -telemetry-addr\n", f.fs.Name())
		return nil, 2
	}
	if !f.Print && f.Addr == "" && f.Dump == "" && f.Timeline == "" {
		return nil, 0
	}
	tel = NewTelemetry()
	if f.Timeline != "" {
		tel.EnableTimeline()
	}
	if f.Addr != "" {
		addr, err := tel.Serve(f.Addr, f.Pprof)
		if err != nil {
			fmt.Fprintf(f.fs.Output(), "%s: %v\n", f.fs.Name(), err)
			return nil, 1
		}
		fmt.Fprintf(f.fs.Output(), "%s: serving telemetry on http://%s/metrics (live snapshot at /progress)\n", f.fs.Name(), addr)
	}
	return tel, 0
}

// Finish writes the -telemetry-dump and -timeline files, prints the
// Prometheus text under -telemetry to w after a header line (a nil w prints
// nothing), and stops tel's server. It returns the tool's exit code: 1 when a
// write failed, after printing why.
func (f *TelemetryFlags) Finish(tel *Telemetry, w io.Writer) int {
	err := tel.writeFile(f.Dump, tel.WriteProm)
	if err == nil {
		err = tel.WriteTimelineFile(f.Timeline)
	}
	if err == nil && f.Print && w != nil {
		fmt.Fprintln(w, "-- telemetry (Prometheus text format) --")
		err = tel.WriteProm(w)
	}
	if cerr := tel.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(f.fs.Output(), "%s: %v\n", f.fs.Name(), err)
		return 1
	}
	return 0
}

// analyserFlags is the flag table on a set of its own, parsing into o.
func analyserFlags(o *Options) *flag.FlagSet {
	fs := flag.NewFlagSet(envOptions, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.BindFlags(fs)
	return fs
}

// Environ renders the analyser flags that were set on the parsed fs as one
// environment assignment, e.g. COMMPROF_OPTS=-phases=2000 -shards=2. Flags fs
// declares beyond BindFlags' are not the analyser's and stay behind.
func Environ(fs *flag.FlagSet) string {
	table := analyserFlags(new(Options))
	var args []string
	fs.Visit(func(f *flag.Flag) {
		if table.Lookup(f.Name) != nil {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return envOptions + "=" + strings.Join(args, " ")
}

// OptionsFromEnv is Environ's inverse: the analyser options COMMPROF_OPTS
// holds, the flag defaults when it is absent. An unknown flag, a stray word,
// a malformed or negative value are errors, never silently a default.
func OptionsFromEnv() (Options, error) {
	var o Options
	fs := analyserFlags(&o)
	err := fs.Parse(strings.Fields(os.Getenv(envOptions)))
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("%q is not a flag", fs.Arg(0))
	}
	if err == nil {
		err = o.CheckFlags()
	}
	if err != nil {
		return Options{}, fmt.Errorf("%s: %w", envOptions, err)
	}
	return o, nil
}

// rateFlag is a probability in [0, 1). Zero means "not given": it leaves the
// field as it is, so the order of flags cannot matter.
type rateFlag struct{ p *float64 }

func (f rateFlag) String() string {
	if f.p == nil {
		return "0" // the zero Value package flag compares a default against
	}
	return strconv.FormatFloat(*f.p, 'g', -1, 64)
}

func (f rateFlag) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v < 1) {
		return fmt.Errorf("want a rate in [0, 1)")
	}
	if v != 0 {
		*f.p = v
	}
	return nil
}

// sampleFlag is -sample N: one of every N reads, 0 = no sampling.
type sampleFlag struct{ o *Options }

func (f sampleFlag) String() string {
	if f.o == nil {
		return "0"
	}
	return strconv.FormatUint(uint64(f.o.SamplePeriod), 10)
}

func (f sampleFlag) Set(s string) error {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return err
	}
	f.o.SamplePeriod = uint32(n)
	return nil
}

// accuracyBitsFlag is -accuracy-bits: the sample slice, and — 0 being a
// meaningful slice — the monitor's on switch whenever it is given at all.
type accuracyBitsFlag struct{ o *Options }

func (f accuracyBitsFlag) String() string {
	if f.o == nil {
		return "0"
	}
	return strconv.FormatUint(uint64(f.o.AccuracySampleBits), 10)
}

func (f accuracyBitsFlag) Set(s string) error {
	n, err := strconv.ParseUint(s, 10, 0)
	if err != nil {
		return err
	}
	f.o.AccuracySampleBits = uint(n)
	if f.o.AccuracyTargetFPR == 0 {
		f.o.AccuracyTargetFPR = DefaultAccuracyTargetFPR
	}
	return nil
}
