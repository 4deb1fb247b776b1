package experiments

import (
	"fmt"
	"sort"
	"strings"

	"commprof/internal/detect"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// FPRCell is the false-positive rate of one application at one signature
// size.
type FPRCell struct {
	App       string
	Slots     uint64
	SigEvents uint64 // dependencies the bounded signature reported
	FalsePos  uint64 // of those, ones the perfect signature rejects
	FPR       float64
}

// FPRResult is the §V-A3 sweep: FPR per application per signature size, plus
// the per-size averages the paper quotes (85.8 / 22.0 / 8.4 / 2.1 %).
type FPRResult struct {
	Slots    []uint64
	Cells    []FPRCell
	Averages map[uint64]float64
}

// DefaultFPRSlots are the sweep points. The paper sweeps 1e6/4e6/1e7/1e8
// slots against SPLASH working sets of ~1e7 distinct addresses; these values
// reproduce the same slots-to-working-set ratios against this repository's
// synthetic working sets (~1e4-1e5 addresses). EXPERIMENTS.md documents the
// mapping.
var DefaultFPRSlots = []uint64{256, 4096, 32768, 262144}

// FPRSweep measures signature false-positive rates by running the bounded
// asymmetric signature and the collision-free perfect signature in lockstep
// over the identical deterministic access stream. A bounded-signature event
// is a false positive when the perfect signature reports no dependence for
// the same access, or attributes it to a different writer.
func FPRSweep(env Env, size splash.Size, slots []uint64) (*FPRResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if len(slots) == 0 {
		slots = DefaultFPRSlots
	}
	res := &FPRResult{Slots: slots, Averages: map[uint64]float64{}}
	counts := map[uint64]int{}
	for _, app := range splash.Names() {
		for _, n := range slots {
			cell, err := fprOne(env, app, size, n)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
			res.Averages[n] += cell.FPR
			counts[n]++
		}
	}
	for n := range res.Averages {
		res.Averages[n] /= float64(counts[n])
	}
	return res, nil
}

func fprOne(env Env, app string, size splash.Size, slots uint64) (FPRCell, error) {
	prog, err := splash.New(app, splash.Config{Threads: env.Threads, Size: size, Seed: env.Seed})
	if err != nil {
		return FPRCell{}, err
	}
	asym, err := env.newSignature(slots, sig.HashMurmur)
	if err != nil {
		return FPRCell{}, err
	}
	dA, err := detect.New(detect.Options{Threads: env.Threads, Backend: asym})
	if err != nil {
		return FPRCell{}, err
	}
	dP, err := detect.New(detect.Options{Threads: env.Threads, Backend: sig.NewPerfect(env.Threads)})
	if err != nil {
		return FPRCell{}, err
	}

	var sigEvents, falsePos uint64
	probe := func(a trace.Access) {
		evA, okA := dA.Process(a)
		evP, okP := dP.Process(a)
		if okA {
			sigEvents++
			if !okP || evA.Writer != evP.Writer {
				falsePos++
			}
		}
	}
	if _, err := prog.Run(newEngine(env, probe)); err != nil {
		return FPRCell{}, fmt.Errorf("experiments: %s: %w", app, err)
	}
	cell := FPRCell{App: app, Slots: slots, SigEvents: sigEvents, FalsePos: falsePos}
	if sigEvents > 0 {
		cell.FPR = float64(falsePos) / float64(sigEvents)
	}
	return cell, nil
}

// Render formats the sweep, averages last (the paper's headline numbers).
func (r *FPRResult) Render() string {
	var b strings.Builder
	b.WriteString("§V-A3 — signature false-positive rate sweep\n")
	fmt.Fprintf(&b, "%-11s", "app")
	for _, n := range r.Slots {
		fmt.Fprintf(&b, " %10d", n)
	}
	b.WriteByte('\n')
	byApp := map[string]map[uint64]float64{}
	var apps []string
	for _, c := range r.Cells {
		if byApp[c.App] == nil {
			byApp[c.App] = map[uint64]float64{}
			apps = append(apps, c.App)
		}
		byApp[c.App][c.Slots] = c.FPR
	}
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(&b, "%-11s", app)
		for _, n := range r.Slots {
			fmt.Fprintf(&b, " %9.1f%%", 100*byApp[app][n])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-11s", "AVERAGE")
	for _, n := range r.Slots {
		fmt.Fprintf(&b, " %9.1f%%", 100*r.Averages[n])
	}
	b.WriteByte('\n')
	return b.String()
}
