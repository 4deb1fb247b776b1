package passes_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	commprof "commprof"
	"commprof/internal/passes"
	"commprof/internal/trace"
)

// TestProfileSplashCoalesceFlag pins that the coalescing escape hatch is
// inert for the bundled SPLASH workloads: they issue probes directly (no
// MiniPar compilation), so a profile with coalescing on must be byte-equal —
// the whole Report, matrices included — to one with it off, at randomised
// granularity. Any divergence means DisableCoalesce leaked into a code path
// it must not touch.
func TestProfileSplashCoalesceFlag(t *testing.T) {
	const seed = 20150910
	for i, name := range commprof.Workloads() {
		name := name
		gran := uint(rand.New(rand.NewSource(seed + int64(i))).Intn(7))
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := fmt.Sprintf("seed=%d workload=%s granularity=%d", seed, name, gran)
			base := commprof.Options{
				Workload: name, Threads: 8, InputSize: "simdev", Seed: 7,
				GranularityBits: gran,
			}
			on, err := commprof.Profile(base)
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			off := base
			off.DisableCoalesce = true
			offRep, err := commprof.Profile(off)
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			if on.Coalescing != nil || offRep.Coalescing != nil {
				t.Fatalf("%s: SPLASH profile grew a coalescing section", cfg)
			}
			if !reflect.DeepEqual(on, offRep) {
				t.Fatalf("%s: -coalesce flag changed a SPLASH profile:\non:\n%s\noff:\n%s",
					cfg, on.Summary(), offRep.Summary())
			}
		})
	}
}

// TestProfileMiniParCoalesceIdentity is the facade-level differential: a full
// ProfileMiniPar run with coalescing on must report the same communication —
// global matrix, per-region matrices, dependence and byte counts, hotspots —
// and the same program outputs as one with it off, while actually eliding a
// measurable share of the probe stream.
func TestProfileMiniParCoalesceIdentity(t *testing.T) {
	srcs := coalesceKernelSources()
	for name, src := range srcs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			const threads = 4
			on, onOuts, err := commprof.ProfileMiniPar(src, threads, nil, commprof.Options{})
			if err != nil {
				t.Fatal(err)
			}
			off, offOuts, err := commprof.ProfileMiniPar(src, threads, nil, commprof.Options{DisableCoalesce: true})
			if err != nil {
				t.Fatal(err)
			}
			if off.Coalescing != nil {
				t.Fatal("DisableCoalesce run still has a coalescing report")
			}
			if on.Coalescing == nil {
				t.Fatal("default run is missing its coalescing report")
			}
			if on.Coalescing.Elided == 0 {
				t.Fatalf("no accesses elided at runtime: %+v", on.Coalescing)
			}
			if on.Coalescing.Elided+on.Coalescing.Emitted != off.Accesses {
				t.Fatalf("elided (%d) + emitted (%d) != uncoalesced accesses (%d)",
					on.Coalescing.Elided, on.Coalescing.Emitted, off.Accesses)
			}
			if on.Accesses != off.Accesses {
				t.Fatalf("access counts differ: %d vs %d", on.Accesses, off.Accesses)
			}
			if on.Dependencies != off.Dependencies || on.CommBytes != off.CommBytes {
				t.Fatalf("detected communication differs: on=%d deps/%dB off=%d deps/%dB",
					on.Dependencies, on.CommBytes, off.Dependencies, off.CommBytes)
			}
			if !reflect.DeepEqual(on.Global, off.Global) {
				t.Fatalf("global matrices differ:\non: %+v\noff: %+v", on.Global, off.Global)
			}
			if !reflect.DeepEqual(maskRegionAccesses(on.Regions), maskRegionAccesses(off.Regions)) {
				t.Fatalf("region reports differ:\non: %+v\noff: %+v", on.Regions, off.Regions)
			}
			if !reflect.DeepEqual(on.Hotspots, off.Hotspots) {
				t.Fatalf("hotspot reports differ:\non: %+v\noff: %+v", on.Hotspots, off.Hotspots)
			}
			if !reflect.DeepEqual(onOuts, offOuts) {
				t.Fatalf("program outputs differ:\non: %+v\noff: %+v", onOuts, offOuts)
			}
		})
	}
}

// TestProfileTraceParallelCoalesceIdentity drives the captured coalesced and
// uncoalesced probe streams of each kernel through the sharded facade at
// randomised shard counts: the parallel analysis of the thinned stream must
// agree with the parallel analysis of the full stream.
func TestProfileTraceParallelCoalesceIdentity(t *testing.T) {
	const seed = 20150911
	rng := rand.New(rand.NewSource(seed))
	for name, src := range coalesceKernelSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			const threads = 4
			onAccs, onRegs := captureFacadeTrace(t, src, threads, true)
			offAccs, offRegs := captureFacadeTrace(t, src, threads, false)
			if len(onAccs) >= len(offAccs) {
				t.Fatalf("coalesced stream is not thinner: %d vs %d accesses", len(onAccs), len(offAccs))
			}
			for trial := 0; trial < 3; trial++ {
				shards := 1 + rng.Intn(8)
				cfg := fmt.Sprintf("seed=%d program=%s trial=%d shards=%d", seed, name, trial, shards)
				opts := commprof.Options{AnalysisShards: shards}
				on, err := commprof.ProfileTrace(onAccs, onRegs, threads, opts)
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				off, err := commprof.ProfileTrace(offAccs, offRegs, threads, opts)
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				if on.Dependencies != off.Dependencies || on.CommBytes != off.CommBytes {
					t.Fatalf("%s: detected communication differs: on=%d deps/%dB off=%d deps/%dB",
						cfg, on.Dependencies, on.CommBytes, off.Dependencies, off.CommBytes)
				}
				if !reflect.DeepEqual(on.Global, off.Global) {
					t.Fatalf("%s: global matrices differ:\non: %+v\noff: %+v", cfg, on.Global, off.Global)
				}
				if !reflect.DeepEqual(maskRegionAccesses(on.Regions), maskRegionAccesses(off.Regions)) {
					t.Fatalf("%s: region reports differ:\non: %+v\noff: %+v", cfg, on.Regions, off.Regions)
				}
			}
		})
	}
}

// maskRegionAccesses zeroes the per-region emitted-probe counts: the one
// field the coalesced run legitimately shrinks (an elided access still ticks
// the engine but is never attributed to a region). Every other field —
// matrices, communicated bytes, ordering — must match exactly.
func maskRegionAccesses(regs []commprof.RegionReport) []commprof.RegionReport {
	out := make([]commprof.RegionReport, len(regs))
	copy(out, regs)
	for i := range out {
		out[i].Accesses = 0
	}
	return out
}

// captureFacadeTrace compiles and runs src under sync-only scheduling and
// returns the emitted probe stream and region list in the facade's types.
func captureFacadeTrace(t *testing.T, src string, threads int, coalesce bool) ([]commprof.Access, []commprof.Region) {
	t.Helper()
	run := runKernelExact(t, src, threads, coalesce)
	accs := make([]commprof.Access, 0, len(run.Accesses))
	for _, a := range run.Accesses {
		k := commprof.ReadAccess
		if a.Kind == trace.Write {
			k = commprof.WriteAccess
		}
		accs = append(accs, commprof.Access{
			Kind: k, Addr: a.Addr, Size: a.Size,
			Thread: a.Thread, Region: a.Region, Time: a.Time,
		})
	}
	regs := make([]commprof.Region, 0, run.Table.Len())
	for _, r := range run.Table.Regions {
		regs = append(regs, commprof.Region{
			Name: r.Name, Parent: r.Parent, Loop: r.Kind == trace.LoopRegion,
		})
	}
	return accs, regs
}

// The helpers below re-export the internal test corpus for this external
// test package.

func coalesceKernelSources() map[string]string {
	return passes.CoalesceKernels()
}

func runKernelExact(t *testing.T, src string, threads int, coalesce bool) passes.KernelRun {
	t.Helper()
	run, err := passes.RunKernelExact(src, threads, 0, coalesce)
	if err != nil {
		t.Fatal(err)
	}
	return run
}
