package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/baselines"
	"commprof/internal/sig"
	"commprof/internal/splash"
)

// Table1Result couples the paper's qualitative Table I with the overheads
// measured in this repository, so the table's DiscoPoP row is backed by runs
// rather than citation.
type Table1Result struct {
	Rows []baselines.Capability
	// MeasuredSlowdownAvg is this repository's Fig. 4 average.
	MeasuredSlowdownAvg float64
	// MeasuredSigMemBytes is the fixed signature memory at the operating
	// point (Eq. 2).
	MeasuredSigMemBytes uint64
	// MeasuredFPRLargeSig is the FPR at the largest sweep size.
	MeasuredFPRLargeSig float64
}

// Table1 reproduces Table I and attaches measured values from quick runs at
// the given size.
func Table1(env Env, size splash.Size) (*Table1Result, error) {
	res := &Table1Result{
		Rows:                baselines.TableI(),
		MeasuredSigMemBytes: sig.SigMem(env.SigSlots, env.Threads, fpRate),
	}
	f4, err := Fig4(env, size)
	if err != nil {
		return nil, err
	}
	res.MeasuredSlowdownAvg = f4.Average

	slots := DefaultFPRSlots[len(DefaultFPRSlots)-1]
	fpr, err := FPRSweep(env, size, []uint64{slots})
	if err != nil {
		return nil, err
	}
	res.MeasuredFPRLargeSig = fpr.Averages[slots]
	return res, nil
}

// Render formats the table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I — profiler comparison on the six Cruz properties\n\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s\n", row.Name)
		fmt.Fprintf(&b, "  real-time detection: %s\n", row.RealTime)
		fmt.Fprintf(&b, "  memory overhead:     %s\n", row.MemoryOverhead)
		fmt.Fprintf(&b, "  runtime overhead:    %s\n", row.RuntimeOverhead)
		fmt.Fprintf(&b, "  accuracy:            %s\n", row.Accuracy)
		fmt.Fprintf(&b, "  dynamic behavior:    %s\n", row.DynamicBehavior)
		fmt.Fprintf(&b, "  FP resiliency:       %s\n", row.FPResilience)
		fmt.Fprintf(&b, "  independence:        %s\n", row.Independence)
	}
	fmt.Fprintf(&b, "\nMeasured in this repository:\n")
	fmt.Fprintf(&b, "  DiscoPoP avg slowdown: %.0fx\n", r.MeasuredSlowdownAvg)
	fmt.Fprintf(&b, "  DiscoPoP fixed memory: %.1f MB (Eq. 2)\n", float64(r.MeasuredSigMemBytes)/(1<<20))
	fmt.Fprintf(&b, "  FPR at largest signature: %.1f%%\n", 100*r.MeasuredFPRLargeSig)
	return b.String()
}
