package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"commprof"
	"commprof/internal/trace"
)

// The measurement is a closed loop with one client: one op at a time, the
// next issued when the last returned. A pass is every op of the workload
// once; a pass sample is the pass's wall time over the accesses analysed in
// it. Passes repeat until the run's time is up, so the sample count N moves
// with the host; the tail is therefore a fixed percentile, p67 — what the
// "highest percentile with ten samples beyond it" rule gives at N = 31.
const (
	setupReps    = 3 // set-up is repeated and its median reported
	warmPasses   = 2
	minPasses    = 5
	tailQuantile = 2.0 / 3
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pass is one pass's timing and the exact counts its ops returned.
type pass struct {
	wallNs      int64
	alloc       uint64 // bytes allocated inside the timed part
	gc          uint32
	failed      int
	l1          uint64 // distance of the ops' matrices from the oracle's
	oracleBytes uint64
	sigBytes    uint64
	encoded     uint64 // trace bytes the ops wrote
	maxRSS      uint64 // external ops: the largest child
	reports     []*commprof.Report
}

// runPass issues every op once, with the yardstick paced in between; only
// the ops are timed and counted.
func runPass(in *instance, y *yardstick) pass {
	outs := make([]outcome, len(in.ops))
	var p pass
	var m0, m1 runtime.MemStats
	for i, o := range in.ops {
		y.pace()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		outs[i] = in.w.run(in, o)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		y.cover(d)
		p.wallNs += int64(d)
		if !in.w.layers.probe {
			p.alloc += m1.TotalAlloc - m0.TotalAlloc
			p.gc += m1.NumGC - m0.NumGC
		}
	}
	for i, o := range in.ops {
		if err := p.check(in, o, outs[i]); err != nil {
			p.failed++
			fmt.Printf("FAILED %s %s: %v\n", in.w.Name, o.name, err)
		}
	}
	return p
}

// check is the correctness gate every op passes through, warm-up included.
func (p *pass) check(in *instance, o *op, out outcome) error {
	if out.err != nil {
		return out.err
	}
	rep := out.rep
	if in.w.layers.probe {
		if err := checkProbe(o, out.target); err != nil {
			return err
		}
		// The op ends at the trace file; the analysis numbers are the
		// set-up reference run's.
		rep = o.refReport
		p.alloc += out.target.TotalAlloc
		p.maxRSS = max(p.maxRSS, out.target.PeakRSS)
	}
	p.reports = append(p.reports, rep)
	p.sigBytes += rep.SignatureBytes
	p.encoded += out.traceBytes
	if rep.Accesses != o.accesses {
		return fmt.Errorf("report counts %d accesses, generator issued %d", rep.Accesses, o.accesses)
	}
	for i := range rep.Global.Bytes {
		if rep.Global.Bytes[i][i] != 0 {
			return fmt.Errorf("thread %d communicates with itself (%d bytes)", i, rep.Global.Bytes[i][i])
		}
	}
	d, err := o.oracle.l1(rep.Global)
	if err != nil {
		return err
	}
	p.l1 += d
	p.oracleBytes += o.oracle.total
	if float64(d) > o.ceiling*float64(o.oracle.total) {
		return fmt.Errorf("matrix is %d bytes from the oracle's %d, over the %.1f%% ceiling", d, o.oracle.total, 100*o.ceiling)
	}
	if in.w.sameAsRecording {
		for i, row := range o.refGlobal.Bytes {
			for j, want := range row {
				if rep.Global.Bytes[i][j] != want {
					return fmt.Errorf("replayed matrix differs from the recording run's at [%d][%d]: %d != %d", i, j, rep.Global.Bytes[i][j], want)
				}
			}
		}
	}
	return nil
}

func (p pass) commErrorPct() float64 { return 100 * div(float64(p.l1), float64(p.oracleBytes)) }

type measurement struct {
	samples   []float64 // ns/access, one per measured pass
	wallNs    int64
	alloc     uint64
	gc        uint32
	attempted int
	failed    int
	childRSS  []float64
	last      pass
}

// measure warms up, then runs passes until budget is spent (or exactly
// fixed passes when fixed > 0).
func measure(in *instance, budget time.Duration, fixed int, y *yardstick) measurement {
	var m measurement
	count := func(p pass) {
		m.attempted += len(in.ops)
		m.failed += p.failed
	}
	for i := 0; i < warmPasses && (fixed == 0 || i < fixed); i++ {
		count(runPass(in, y))
	}
	resetPeakRSS()
	deadline := time.Now().Add(budget)
	for n := 0; n < fixed || (fixed == 0 && (n < minPasses || time.Now().Before(deadline))); n++ {
		p := runPass(in, y)
		count(p)
		m.samples = append(m.samples, float64(p.wallNs)/float64(in.accesses))
		m.wallNs += p.wallNs
		m.alloc += p.alloc
		m.gc += p.gc
		if in.w.layers.probe {
			m.childRSS = append(m.childRSS, float64(p.maxRSS))
		}
		m.last = p
	}
	return m
}

// quantile is the nearest-rank order statistic.
func quantile(values []float64, q float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// resetPeakRSS makes VmHWM count from now, so peak_rss_bytes is the peak of
// the measured passes over the inputs they need, not of set-up. Where the
// kernel refuses, the whole process's peak is reported instead.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

func peakRSS() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

type countWriter struct{ n uint64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += uint64(len(p)); return len(p), nil }

// traceBytes is the v3 size of the pass's access sequences: what the ops
// wrote where they write a trace, what they read where they read one, and
// otherwise what commprof's encoder makes of the sequence they analysed.
func traceBytes(in *instance, last pass) (uint64, error) {
	if last.encoded > 0 {
		return last.encoded, nil
	}
	var total uint64
	for _, o := range in.ops {
		if o.traceIn != nil {
			total += uint64(len(o.traceIn))
			continue
		}
		var cw countWriter
		enc, err := trace.NewEncoderVersion(&cw, o.table, int(o.accesses), o.threads, trace.DefaultVersion)
		if err != nil {
			return 0, err
		}
		o.batches(func(b []trace.Access) {
			for _, a := range b {
				if err == nil {
					err = enc.Write(a)
				}
			}
		})
		if err == nil {
			err = enc.Close()
		}
		if err != nil {
			return 0, err
		}
		total += cw.n
	}
	return total, nil
}

func setUp(w *workload, cfg config, reps int, y *yardstick) (*instance, float64, error) {
	var in *instance
	var secs []float64
	for i := 0; i < reps; i++ {
		in = nil
		runtime.GC()
		y.pace()
		t0 := time.Now()
		var err error
		if in, err = w.setup(w, cfg); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		y.cover(time.Since(t0))
		secs = append(secs, time.Since(t0).Seconds())
	}
	return in, median(secs), nil
}

// runEndToEnd is a --trace 0 run: tracing off, every end-to-end metric.
func runEndToEnd(w *workload, cfg config, budget time.Duration, fixed int) (result, error) {
	y := newYardstick()
	in, setupS, err := setUp(w, cfg, setupReps, y)
	if err != nil {
		return result{}, err
	}
	m := measure(in, budget, fixed, y)
	var rss float64
	if w.layers.probe {
		rss = median(m.childRSS)
	} else {
		hwm, err := peakRSS()
		if err != nil {
			return result{}, err
		}
		rss = float64(hwm)
	}
	tb, err := traceBytes(in, m.last)
	if err != nil {
		return result{}, err
	}
	// Times are divided by how much slower than nominal the host ran the
	// yardstick during this run; see yardstick.go.
	slow := y.factor()
	total := float64(in.accesses) * float64(len(m.samples))
	values := map[string]float64{
		"setup_s":                setupS / slow,
		"ns_per_access_p50":      median(m.samples) / slow,
		"ns_per_access_tail":     quantile(m.samples, tailQuantile) / slow,
		"accesses_per_s":         total / (float64(m.wallNs) / 1e9) * slow,
		"peak_rss_bytes":         rss,
		"alloc_bytes_per_access": float64(m.alloc) / total,
		"signature_bytes":        float64(m.last.sigBytes),
		"comm_accuracy_pct":      100 - m.last.commErrorPct(),
		"trace_bytes_per_access": float64(tb) / float64(in.accesses),
	}
	fmt.Printf("%s: %d measured passes of %d ops and %d accesses, %d ops attempted, %d failed (ops_failed_share %.4f)\n",
		w.Name, len(m.samples), len(in.ops), in.accesses, m.attempted, m.failed, div(float64(m.failed), float64(m.attempted)))
	fmt.Printf("%s: host ran the yardstick at %.3fx nominal (median %.0f ns over %d executions); unnormalised p50 %.2f ns/access, set-up %.3f s\n",
		w.Name, slow, median(y.samples), len(y.samples), median(m.samples), setupS)
	return finish(w, endToEnd, values, m), nil
}

// runTraced is a --trace 1 run: a short untraced measurement for the
// end-to-end median the layers are held against, then staged passes until
// the time is up; every per-layer metric is its median over them.
func runTraced(w *workload, cfg config, budget time.Duration, fixed int, traceOut string) (result, error) {
	y := newYardstick()
	in, _, err := setUp(w, cfg, 1, y)
	if err != nil {
		return result{}, err
	}
	deadline := time.Now().Add(budget)
	m := measure(in, budget/4, fixed, y)
	e2eNs := median(m.samples) * float64(in.accesses)

	var summary stopwatch
	for _, rep := range m.last.reports {
		summary.time(func() { _ = rep.Summary() })
	}

	tr := newTracer()
	perPass := map[string][]float64{}
	for n := 0; n == 0 || (fixed == 0 && time.Now().Before(deadline)); n++ {
		s := sums{}
		root := tr.open(0, "", fmt.Sprintf("staged pass %d", n))
		for _, o := range in.ops {
			if err := stagedOp(in, o, tr, root, s); err != nil {
				return result{}, fmt.Errorf("%s staged pass, %s: %w", w.Name, o.name, err)
			}
		}
		tr.close(root, stopwatch{}, nil)
		for name, v := range derive(w, s, e2eNs) {
			perPass[name] = append(perPass[name], v)
		}
	}
	values := map[string]float64{
		"commprof.summary_ns_per_op": div(float64(summary.busy), float64(summary.calls)),
		"commprof.gc_cycles_per_op":  div(float64(m.gc), float64(len(m.samples)*len(in.ops))),
		"commprof.host_slowdown":     y.factor(),
		"comm_error_pct":             m.last.commErrorPct(),
	}
	for name, vs := range perPass {
		values[name] = median(vs)
	}
	if c := values["commprof.layer_coverage"]; c < 0.85 || c > 1.15 {
		fmt.Printf("WARNING %s: commprof.layer_coverage %.3f outside 0.85-1.15\n", w.Name, c)
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return result{}, err
	}
	err = tr.write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%s: %d staged passes against an untraced median of %.1f ns/access over %d passes; %d spans in %s\n",
		w.Name, len(perPass["commprof.layer_coverage"]), median(m.samples), len(m.samples), len(tr.spans), traceOut)
	return finish(w, perLayer, values, m), nil
}

func finish(w *workload, catalogue []metricInfo, values map[string]float64, m measurement) result {
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, mi := range catalogue {
		v, ok := values[mi.Name]
		if !ok {
			panic("bench: no value for catalogue metric " + mi.Name)
		}
		res.Metrics[mi.Name] = metricValue{Value: v, Unit: mi.Unit}
		fmt.Printf("%-14s %-34s %18.6f %s\n", w.Name, mi.Name, v, mi.Unit)
	}
	return res
}
