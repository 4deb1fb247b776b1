package experiments

import (
	"fmt"
	"strings"
	"time"

	"commprof/internal/baselines"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/obs"
	"commprof/internal/pipeline"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// SamplingRow is one point of the §VII sampling ablation: overhead versus
// pattern fidelity at one sampling rate.
type SamplingRow struct {
	Period      uint32 // one of every Period reads analysed
	Fraction    float64
	WallNs      int64
	Speedup     float64 // full-profiling wall / sampled wall
	Fidelity    float64 // cosine similarity to the unsampled matrix
	VolumeRatio float64 // scaled sampled volume / true volume
}

// SamplingResult is the full ablation for one application.
type SamplingResult struct {
	App  string
	Rows []SamplingRow
}

// SamplingAblation evaluates the paper's §VII outlook — sampling to reduce
// instrumentation overhead — on one application: one-of-period read
// sampling at several rates, measuring analysis wall time, matrix shape
// fidelity and rescaled-volume accuracy against full profiling.
func SamplingAblation(env Env, app string, size splash.Size) (*SamplingResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	periods := []uint32{1, 2, 4, 8, 16}

	var fullMatrix *comm.Matrix
	var fullWall int64
	res := &SamplingResult{App: app}
	for _, period := range periods {
		prog, err := splash.New(app, splash.Config{Threads: env.Threads, Size: size, Seed: env.Seed})
		if err != nil {
			return nil, err
		}
		d, _, err := env.newDetector(prog.Table())
		if err != nil {
			return nil, err
		}
		gate, err := detect.NewGate(env.Threads, period)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := prog.Run(newEngine(env, gated(gate, d))); err != nil {
			return nil, fmt.Errorf("experiments: %s sampling 1/%d: %w", app, period, err)
		}
		wall := time.Since(t0).Nanoseconds()
		if period == 1 {
			fullMatrix = d.Global()
			fullWall = wall
		}
		row := SamplingRow{
			Period:   period,
			Fraction: gate.Fraction(),
			WallNs:   wall,
		}
		if fullMatrix != nil {
			row.Fidelity = metrics.CosineSimilarity(fullMatrix, d.Global())
			if ft := fullMatrix.Total(); ft > 0 {
				row.VolumeRatio = float64(scaledTotal(d.Global(), gate.Fraction())) / float64(ft)
			}
			row.Speedup = float64(fullWall) / float64(wall)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// gated is d's probe behind the read-sampling gate.
func gated(gate *detect.Gate, d *detect.Detector) exec.Probe {
	return func(a trace.Access) {
		if gate.Admit(a.Kind, a.Thread) {
			d.Process(a)
		}
	}
}

// scaledTotal estimates the unsampled communication volume from a matrix
// detected with the given fraction of reads analysed: each cell rescaled by
// 1/fraction and rounded to the nearest byte, then summed.
func scaledTotal(m *comm.Matrix, fraction float64) uint64 {
	scale := 1 / fraction
	var total uint64
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			if v := m.At(src, dst); v > 0 {
				total += uint64(float64(v)*scale + 0.5)
			}
		}
	}
	return total
}

// Render formats the ablation.
func (r *SamplingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VII sampling ablation — %s (read sampling, writes always analysed)\n", r.App)
	fmt.Fprintf(&b, "%8s %10s %10s %10s %12s\n", "rate", "wall ms", "speedup", "fidelity", "volume est.")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "   1/%-3d %10.1f %9.2fx %10.3f %11.2fx\n",
			row.Period, float64(row.WallNs)/1e6, row.Speedup, row.Fidelity, row.VolumeRatio)
	}
	return b.String()
}

// SparseRow compares dense and sparse matrix storage for one configuration.
type SparseRow struct {
	Label       string
	Threads     int
	NonZero     int
	DenseBytes  uint64
	SparseBytes uint64
	Winner      string
}

// SparseResult is the §VII sparse-matrix ablation.
type SparseResult struct {
	Rows []SparseRow
}

// SparseAblation evaluates sparse communication matrices (§VII outlook):
// real workload matrices at the experiment thread count, plus synthetic
// O(n)-pair patterns at high thread counts where the dense n² cost explodes.
func SparseAblation(env Env, size splash.Size) (*SparseResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	res := &SparseResult{}
	for _, app := range []string{"ocean_cp", "fft", "radix", "water_spat"} {
		d, _, _, err := env.profile(app, size)
		if err != nil {
			return nil, err
		}
		m := d.Global()
		sp := comm.FromDense(m)
		res.Rows = append(res.Rows, sparseRow(app, env.Threads, m.NonZeroCells(), sp))
	}
	// Synthetic ring pattern at scale: the regime the outlook targets.
	for _, n := range []int{64, 256, 1024, 4096} {
		sp := comm.NewSparse(n)
		for i := int32(0); i < int32(n); i++ {
			sp.Add(i, (i+1)%int32(n), 64)
			sp.Add(i, (i-1+int32(n))%int32(n), 64)
		}
		res.Rows = append(res.Rows, sparseRow(fmt.Sprintf("ring-%d", n), n, sp.NonZeroCells(), sp))
	}
	return res, nil
}

func sparseRow(label string, threads, nz int, sp *comm.SparseMatrix) SparseRow {
	row := SparseRow{
		Label:       label,
		Threads:     threads,
		NonZero:     nz,
		DenseBytes:  comm.DenseMemoryBytes(threads),
		SparseBytes: sp.MemoryBytes(),
	}
	if row.SparseBytes < row.DenseBytes {
		row.Winner = "sparse"
	} else {
		row.Winner = "dense"
	}
	return row
}

// Render formats the ablation.
func (r *SparseResult) Render() string {
	var b strings.Builder
	b.WriteString("§VII sparse-matrix ablation — dense n² cells vs map-backed sparse\n")
	fmt.Fprintf(&b, "%-12s %8s %9s %12s %13s %8s\n", "matrix", "threads", "nonzero", "dense B", "sparse B", "winner")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %8d %9d %12d %13d %8s\n",
			row.Label, row.Threads, row.NonZero, row.DenseBytes, row.SparseBytes, row.Winner)
	}
	return b.String()
}

// ThroughputRow is one profiler's analysis rate over a common access stream.
type ThroughputRow struct {
	Name   string
	Events uint64
	// Analysed is how many of the Events reached the profiler's analysis —
	// all of them except under read sampling, whose skipped reads are what
	// its throughput gain is made of.
	Analysed    uint64
	WallNs      int64
	MEventsPerS float64
	MemoryBytes uint64
}

// ThroughputResult compares analysis throughput across all profilers on the
// identical recorded stream — the quantitative backing for Table I's
// runtime-overhead column.
type ThroughputResult struct {
	App  string
	Rows []ThroughputRow
}

// Throughput records one application's access stream, then replays it
// through every profiler implementation and measures events/second.
func Throughput(env Env, app string, size splash.Size) (*ThroughputResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	// Record the stream once.
	var stream []trace.Access
	prog, _, err := env.runProgram(app, size, func(a trace.Access) { stream = append(stream, a) })
	if err != nil {
		return nil, err
	}
	_ = prog
	res := &ThroughputResult{App: app}

	// run returns the profiler's memory and how many accesses it analysed.
	add := func(name string, run func() (mem, analysed uint64)) {
		t0 := time.Now()
		mem, analysed := run()
		wall := time.Since(t0).Nanoseconds()
		row := ThroughputRow{Name: name, Events: uint64(len(stream)), Analysed: analysed, WallNs: wall, MemoryBytes: mem}
		if wall > 0 {
			row.MEventsPerS = float64(len(stream)) / (float64(wall) / 1e9) / 1e6
		}
		res.Rows = append(res.Rows, row)
	}

	add("discopop", func() (uint64, uint64) {
		asym, err := env.newSignature(env.SigSlots, sig.HashMurmur)
		if err != nil {
			return 0, 0
		}
		d, err := detect.New(detect.Options{Threads: env.Threads, Backend: asym})
		if err != nil {
			return 0, 0
		}
		d.ProcessBatch(stream)
		return asym.FootprintBytes(), d.Stats().Processed
	})
	add("discopop-sampled-1/8", func() (uint64, uint64) {
		asym, err := env.newSignature(env.SigSlots, sig.HashMurmur)
		if err != nil {
			return 0, 0
		}
		d, err := detect.New(detect.Options{Threads: env.Threads, Backend: asym})
		if err != nil {
			return 0, 0
		}
		gate, err := detect.NewGate(env.Threads, 8)
		if err != nil {
			return 0, 0
		}
		probe := gated(gate, d)
		for _, a := range stream {
			probe(a)
		}
		return asym.FootprintBytes(), d.Stats().Processed
	})
	for _, k := range []int{2, 4, 8} {
		k := k
		add(fmt.Sprintf("discopop-sharded-%d", k), func() (uint64, uint64) {
			// The split pipeline.AsymmetricFactory makes, over this
			// package's signature: ceil(slots/K) per shard.
			perShard := (env.SigSlots + uint64(k) - 1) / uint64(k)
			e, err := pipeline.New(pipeline.Options{
				Shards: k, Threads: env.Threads,
				NewBackend: func(int) (sig.Backend, error) { return env.newSignature(perShard, sig.HashMurmur) },
				Probes:     obs.Probes{Pipeline: env.Probes.Pipeline},
			})
			if err != nil {
				return 0, 0
			}
			e.ProcessBatch(stream)
			e.Close()
			return e.SigFootprintBytes(), e.Stats().Processed
		})
	}
	add("perfect", func() (uint64, uint64) {
		p := sig.NewPerfect(env.Threads)
		d, err := detect.New(detect.Options{Threads: env.Threads, Backend: p})
		if err != nil {
			return 0, 0
		}
		d.ProcessBatch(stream)
		return p.FootprintBytes(), d.Stats().Processed
	})
	for _, name := range []string{"memcheck", "helgrind", "helgrind+", "ipm", "sd3", "pairwise"} {
		name := name
		add(name, func() (uint64, uint64) {
			p, err := baselines.NewByName(name)
			if err != nil {
				return 0, 0
			}
			for _, a := range stream {
				p.ProcessAccess(a)
			}
			return p.Result().MemoryBytes, uint64(len(stream))
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r *ThroughputResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profiler analysis throughput — %s stream (%d events)\n", r.App, r.Rows[0].Events)
	fmt.Fprintf(&b, "%-22s %12s %12s %12s %14s\n", "profiler", "analysed", "wall ms", "Mevents/s", "memory KB")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %12d %12.1f %12.2f %14d\n",
			row.Name, row.Analysed, float64(row.WallNs)/1e6, row.MEventsPerS, row.MemoryBytes/1024)
	}
	return b.String()
}
