package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"commprof"
	"commprof/internal/trace"
	"commprof/probe"
)

// The go-probe workload's op is a whole process: this binary re-exec'd with
// -child-probeload as a hand-instrumented target, timed from start to exit.
//
// The target's goroutines take turns: in phase p goroutine p%4 reads then
// writes every word of a shared array (in a seeded order) through
// probe.G().R/W, then hands the turn on over a channel. The hand-off fixes
// the access order, so the communication matrix is known in closed form:
// from phase 1 on, every word a goroutine reads was last written by the
// goroutine before it. Free-running goroutines would make both the order and
// the timing a property of the host's scheduler.

const childFlag = "-child-probeload"

// targetReport is the line the target prints for its parent.
type targetReport struct {
	Probes     uint64 `json:"probes"`
	ProbeNs    int64  `json:"probe_ns"`    // inside the probe loops
	ShutdownNs int64  `json:"shutdown_ns"` // inside probe.Shutdown
	TotalAlloc uint64 `json:"total_alloc"`
	// PeakRSS is the target's own VmHWM just before it exits. The parent
	// cannot take ru_maxrss instead: a child is cloned sharing the parent's
	// memory, and exec folds that memory's high-water mark into the child's
	// ru_maxrss, which then reads as the larger of the two processes.
	PeakRSS uint64 `json:"peak_rss"`
}

// runChildIfAsked turns the process into the target when it was started as
// one; main and TestMain both call it first, so the smoke test's own binary
// can serve as its target.
func runChildIfAsked() {
	if len(os.Args) < 2 || os.Args[1] != childFlag {
		return
	}
	fs := flag.NewFlagSet("probeload", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "sweep-order seed")
	words := fs.Int("words", probeWords, "shared array length")
	phases := fs.Int("phases", probePhases, "hand-off phases")
	_ = fs.Parse(os.Args[2:]) // ExitOnError: Parse does not return an error
	rep := probeTarget(*seed, *words, *phases)
	var err error
	if rep.PeakRSS, err = peakRSS(); err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "probeload:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func sweepOrder(seed int64, words int) []int {
	order := make([]int, words)
	for i := range order {
		order[i] = i
	}
	r := newRNG(seed)
	for i := words - 1; i > 0; i-- {
		j := int(r.intn(uint64(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func probeTarget(seed int64, words, phases int) targetReport {
	probe.Register([]probe.Region{{Name: "main", Parent: -1}, {Name: "sweep", Parent: 0, Loop: true}})
	data := make([]uint64, words)
	order := sweepOrder(seed, words)
	var turn [probeGoroutines]chan struct{}
	for g := range turn {
		turn[g] = make(chan struct{})
	}
	done := make(chan struct{})
	// probeNs is written only by the goroutine holding the turn; the channel
	// hand-off orders the writes.
	var probeNs int64
	for g := 0; g < probeGoroutines; g++ {
		go func(g int) {
			for p := g; p < phases; p += probeGoroutines {
				<-turn[g]
				t0 := time.Now()
				pg := probe.G()
				for _, i := range order {
					pg.R(unsafe.Pointer(&data[i]), wordBytes, 1)
					v := data[i]
					pg.W(unsafe.Pointer(&data[i]), wordBytes, 1)
					data[i] = v + 1
				}
				probeNs += int64(time.Since(t0))
				if p+1 < phases {
					turn[(g+1)%probeGoroutines] <- struct{}{}
				} else {
					close(done)
				}
			}
		}(g)
	}
	turn[0] <- struct{}{}
	<-done
	t0 := time.Now()
	probe.Shutdown()
	shutdownNs := int64(time.Since(t0))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return targetReport{
		Probes: uint64(2 * words * phases), ProbeNs: probeNs, ShutdownNs: shutdownNs, TotalAlloc: ms.TotalAlloc,
	}
}

// analyticMatrix is the hand-off schedule's communication matrix.
func analyticMatrix(words, phases int) [][]uint64 {
	m := make([][]uint64, probeGoroutines)
	for i := range m {
		m[i] = make([]uint64, probeGoroutines)
	}
	for p := 1; p < phases; p++ {
		m[(p-1)%probeGoroutines][p%probeGoroutines] += uint64(words) * wordBytes
	}
	return m
}

// targetRun is one finished target process.
type targetRun struct {
	targetReport
	wallNs  int64
	raw     []byte // the trace file
	table   *trace.Table
	stream  []trace.Access
	threads int
}

func probeDims(cfg config) (words, phases int) {
	if cfg.small {
		return 500, 8
	}
	return probeWords, probePhases
}

// runTarget starts the target, waits for it and decodes what it recorded.
func runTarget(cfg config) (*targetRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "commprof-bench-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.trace")
	words, phases := probeDims(cfg)
	cmd := osexec.Command(self, childFlag, "-seed", fmt.Sprint(cfg.seed), "-words", fmt.Sprint(words), "-phases", fmt.Sprint(phases))
	cmd.Env = append(os.Environ(), "COMMPROF_TRACE="+path, "COMMPROF_TRACE_FORMAT=3")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	run := &targetRun{wallNs: int64(time.Since(t0))}
	if err != nil {
		return nil, fmt.Errorf("probe target: %w: %s", err, stderr.String())
	}
	if err := json.Unmarshal(stdout.Bytes(), &run.targetReport); err != nil {
		return nil, fmt.Errorf("probe target output %q: %w", stdout.String(), err)
	}
	run.raw, err = os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("probe target wrote no trace: %w: %s", err, stderr.String())
	}
	dec, err := trace.NewDecoder(bytes.NewReader(run.raw))
	if err != nil {
		return nil, err
	}
	run.table, run.threads = dec.Table(), dec.Threads()
	run.stream = make([]trace.Access, 0, dec.Len())
	if err := dec.ForEach(func(a trace.Access) error { run.stream = append(run.stream, a); return nil }); err != nil {
		return nil, err
	}
	return run, nil
}

// setupProbe makes one reference run of the target and analyses its trace
// with commprof.Replay, which is where go-probe's signature_bytes and
// comm_accuracy_pct come from: the measured ops stop at the trace file.
func setupProbe(w *workload, cfg config) (*instance, error) {
	ref, err := runTarget(cfg)
	if err != nil {
		return nil, err
	}
	o, err := newOp("probeload", ref.threads, ref.table, ref.stream, nil, ceilingSplash)
	if err != nil {
		return nil, err
	}
	words, phases := probeDims(cfg)
	o.accesses = uint64(2 * words * phases)
	o.analytic = analyticMatrix(words, phases)
	o.traceIn = ref.raw
	if err := checkProbe(o, ref); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	// threads 0: the recording declares its goroutine count.
	if o.refReport, err = commprof.Replay(bytes.NewReader(ref.raw), 0, commprof.Options{Seed: cfg.seed}); err != nil {
		return nil, fmt.Errorf("replay of the reference run: %w", err)
	}
	return &instance{w: w, cfg: cfg, ops: []*op{o}, accesses: o.accesses}, nil
}

func runProbe(in *instance, o *op) outcome {
	run, err := runTarget(in.cfg)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{target: run, traceBytes: uint64(len(run.raw))}
}

// checkProbe holds a target run to the hand-off schedule: every probe
// recorded once, in strictly increasing clock order, and the exact oracle
// over the recording equal to the analytic matrix.
func checkProbe(o *op, run *targetRun) error {
	if uint64(len(run.stream)) != run.Probes || run.Probes != o.accesses {
		return fmt.Errorf("trace holds %d records, target issued %d probes, expected %d", len(run.stream), run.Probes, o.accesses)
	}
	if run.threads != probeGoroutines {
		return fmt.Errorf("trace declares %d goroutines, want %d", run.threads, probeGoroutines)
	}
	orc, err := newOracle(run.threads)
	if err != nil {
		return err
	}
	var last uint64
	for i, a := range run.stream {
		if a.Time <= last {
			return fmt.Errorf("record %d: clock %d after %d", i, a.Time, last)
		}
		last = a.Time
	}
	orc.observeBatch(run.stream)
	if d, err := orc.l1(commprof.Matrix{N: len(o.analytic), Bytes: o.analytic}); err != nil || d != 0 {
		return fmt.Errorf("oracle over the recording is %d bytes from the schedule's matrix (%v)", d, err)
	}
	return nil
}
