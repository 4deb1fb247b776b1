package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/sig"
)

// Eq2 tabulates the paper's signature memory model, SigMem(n, t, FPRate),
// over its evaluated slot counts and three thread counts.
func Eq2() string {
	var b strings.Builder
	b.WriteString("Eq. 2 — SigMem(n, t, FPRate) in MB\n")
	fmt.Fprintf(&b, "%12s %8s %8s %12s\n", "slots", "threads", "FPRate", "MB")
	for _, n := range []uint64{1_000_000, 4_000_000, 10_000_000, 100_000_000} {
		for _, t := range []int{16, 32, 64} {
			mb := float64(sig.SigMem(n, t, fpRate)) / (1 << 20)
			fmt.Fprintf(&b, "%12d %8d %8g %12.1f\n", n, t, fpRate, mb)
		}
	}
	b.WriteString("\npaper operating point: n=1e7, t=32, FPRate=0.001 -> ")
	fmt.Fprintf(&b, "%.1f MB (paper: ≈580 MB)\n", float64(sig.SigMem(10_000_000, 32, 0.001))/(1<<20))
	return b.String()
}
