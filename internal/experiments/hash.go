package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/detect"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// HashRow is one cell of the hash-quality ablation.
type HashRow struct {
	App       string
	MurmurFPR float64
	FoldFPR   float64
}

// HashResult is the ablation backing §IV-D2's hash-function choice: the FPR
// of the murmur-addressed signature versus a weak xor-fold hash at the same
// slot count, over the same access streams.
type HashResult struct {
	Slots uint64
	Rows  []HashRow
}

// HashAblation measures signature FPR under both hash kinds at one slot
// count; the workloads' strided access patterns are exactly the adversarial
// input for weak hashes.
func HashAblation(env Env, size splash.Size, slots uint64) (*HashResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if slots == 0 {
		slots = 8192
	}
	res := &HashResult{Slots: slots}
	for _, app := range []string{"lu_ncb", "fft", "ocean_cp", "radix", "barnes", "water_spat"} {
		row := HashRow{App: app}
		for _, kind := range []sig.HashKind{sig.HashMurmur, sig.HashFold} {
			fpr, err := hashFPROne(env, app, size, slots, kind)
			if err != nil {
				return nil, err
			}
			if kind == sig.HashMurmur {
				row.MurmurFPR = fpr
			} else {
				row.FoldFPR = fpr
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func hashFPROne(env Env, app string, size splash.Size, slots uint64, kind sig.HashKind) (float64, error) {
	prog, err := splash.New(app, splash.Config{Threads: env.Threads, Size: size, Seed: env.Seed})
	if err != nil {
		return 0, err
	}
	asym, err := env.newSignature(slots, kind)
	if err != nil {
		return 0, err
	}
	dA, err := detect.New(detect.Options{Threads: env.Threads, Backend: asym})
	if err != nil {
		return 0, err
	}
	dP, err := detect.New(detect.Options{Threads: env.Threads, Backend: sig.NewPerfect(env.Threads)})
	if err != nil {
		return 0, err
	}
	var events, fp uint64
	probe := func(a trace.Access) {
		evA, okA := dA.Process(a)
		evP, okP := dP.Process(a)
		if okA {
			events++
			if !okP || evA.Writer != evP.Writer {
				fp++
			}
		}
	}
	if _, err := prog.Run(newEngine(env, probe)); err != nil {
		return 0, fmt.Errorf("experiments: %s: %w", app, err)
	}
	if events == 0 {
		return 0, nil
	}
	return float64(fp) / float64(events), nil
}

// Render formats the ablation.
func (r *HashResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§IV-D2 hash ablation — signature FPR at %d slots, MurmurHash vs xor-fold\n", r.Slots)
	fmt.Fprintf(&b, "%-11s %10s %10s\n", "app", "murmur", "xor-fold")
	var mSum, fSum float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %9.1f%% %9.1f%%\n", row.App, 100*row.MurmurFPR, 100*row.FoldFPR)
		mSum += row.MurmurFPR
		fSum += row.FoldFPR
	}
	n := float64(len(r.Rows))
	fmt.Fprintf(&b, "%-11s %9.1f%% %9.1f%%\n", "AVERAGE", 100*mSum/n, 100*fSum/n)
	return b.String()
}
