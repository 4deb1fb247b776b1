package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/baselines"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// MemoryRow is one application group of Fig. 5: analysis-memory consumption
// of DiscoPoP versus the shadow-memory tools and IPM, in bytes.
type MemoryRow struct {
	App          string
	Footprint    uint64 // program shared-data footprint
	DiscoPoP     uint64
	DiscoPoPEq2  uint64 // Eq. 2 closed-form bound for the configuration
	Memcheck     uint64
	Helgrind     uint64
	HelgrindPlus uint64
	IPM          uint64
}

// Fig5Result is one panel of Fig. 5 (5a: simdev, 5b: simlarge).
type Fig5Result struct {
	Size splash.Size
	Rows []MemoryRow
}

// Fig5 runs every application once, fanning each instrumented access out to
// the DiscoPoP detector and all four comparison profilers simultaneously, and
// reports each tool's memory consumption. The headline property: DiscoPoP's
// footprint is fixed by its signature configuration, while the others grow
// with program footprint (shadow tools) or event count (IPM).
func Fig5(env Env, size splash.Size) (*Fig5Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	res := &Fig5Result{Size: size}
	for _, app := range splash.Names() {
		row, err := memoryOne(env, app, size)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func memoryOne(env Env, app string, size splash.Size) (MemoryRow, error) {
	prog, err := splash.New(app, splash.Config{Threads: env.Threads, Size: size, Seed: env.Seed})
	if err != nil {
		return MemoryRow{}, err
	}
	d, asym, err := env.newDetector(prog.Table())
	if err != nil {
		return MemoryRow{}, err
	}
	memcheck := baselines.NewMemcheck()
	helgrind := baselines.NewHelgrind()
	helgrindP := baselines.NewHelgrindPlus()
	ipm := baselines.NewIPM()

	probe := func(a trace.Access) {
		d.Process(a)
		memcheck.ProcessAccess(a)
		helgrind.ProcessAccess(a)
		helgrindP.ProcessAccess(a)
		ipm.ProcessAccess(a)
	}
	if _, err := prog.Run(newEngine(env, probe)); err != nil {
		return MemoryRow{}, fmt.Errorf("experiments: %s: %w", app, err)
	}
	return MemoryRow{
		App:          app,
		Footprint:    prog.Footprint(),
		DiscoPoP:     asym.FootprintBytes(),
		DiscoPoPEq2:  sig.SigMem(env.SigSlots, env.Threads, fpRate),
		Memcheck:     memcheck.Result().MemoryBytes,
		Helgrind:     helgrind.Result().MemoryBytes,
		HelgrindPlus: helgrindP.Result().MemoryBytes,
		IPM:          ipm.Result().MemoryBytes,
	}, nil
}

// Render formats the panel as a text table in KB, the paper's unit.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — memory consumption (KB), input %s\n", r.Size)
	fmt.Fprintf(&b, "%-11s %12s %12s %12s %12s %12s\n", "app", "DiscoPoP", "Memcheck", "Helgrind", "Helgrind+", "IPM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %12d %12d %12d %12d %12d\n",
			row.App, row.DiscoPoP/1024, row.Memcheck/1024, row.Helgrind/1024, row.HelgrindPlus/1024, row.IPM/1024)
	}
	return b.String()
}
