package passes

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/interp"
	"commprof/internal/ir"
	"commprof/internal/pipeline"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// shardReplay feeds a captured probe stream through the sharded analysis
// pipeline on exact per-shard backends and returns the resulting tree.
func shardReplay(t *testing.T, run miniParRun, threads, shards int) *comm.Tree {
	t.Helper()
	pe, err := pipeline.New(pipeline.Options{
		Shards: shards, Threads: threads, Table: run.table,
		NewBackend: pipeline.PerfectFactory(threads),
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.ProcessBatch(run.accesses)
	pe.Close()
	tree, err := pe.Tree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// exampleSources returns the repository's MiniPar example programs, adding
// them to the differential corpus.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range []string{"stencil", "reduction", "pipeline"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".mp"))
		if err != nil {
			t.Fatalf("reading example program: %v", err)
		}
		out["testdata/"+name] = string(b)
	}
	return out
}

type miniParRun struct {
	tree    *comm.Tree
	detect  detect.Stats
	engine  exec.Stats
	static  CoalesceStats
	outputs []interp.Output
	// accesses is the probe stream the detector saw (for sharded replay).
	accesses []trace.Access
	table    *trace.Table
}

// runMiniParExact compiles and executes src on an exact (collision-free)
// backend under sync-only scheduling: a quantum no thread can exhaust, so
// threads interleave only at barriers and lock waits. Under that scheduling
// the coalescing pass's elisions are exact for arbitrary programs, which is
// what the differential tests pin.
func runMiniParExact(t *testing.T, src string, threads int, gran uint, coalesce bool) miniParRun {
	t.Helper()
	run, err := runExactErr(src, threads, gran, coalesce, 0)
	if err != nil {
		t.Fatalf("coalesce=%v: %v", coalesce, err)
	}
	return run
}

// runExactErr is the error-returning core of runMiniParExact, shared with the
// external facade test package via export_test.go and with FuzzCoalesce
// (which caps maxSteps; 0 keeps the interpreter default).
func runExactErr(src string, threads int, gran uint, coalesce bool, maxSteps uint64) (miniParRun, error) {
	mod, table, cs, err := CompileWith(src, Options{Coalesce: coalesce})
	if err != nil {
		return miniParRun{}, fmt.Errorf("compile: %w", err)
	}
	rt, err := interp.New(mod)
	if err != nil {
		return miniParRun{}, err
	}
	if maxSteps > 0 {
		rt.SetMaxSteps(maxSteps)
	}
	d, err := detect.New(detect.Options{
		Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
		GranularityBits: gran,
	})
	if err != nil {
		return miniParRun{}, err
	}
	var stream []trace.Access
	inner := d.Probe()
	eng := exec.New(exec.Options{
		Threads: threads, Quantum: 1 << 30,
		Probe: func(a trace.Access) {
			stream = append(stream, a)
			inner(a)
		},
	})
	stats, err := rt.Run(eng)
	if err != nil {
		return miniParRun{}, fmt.Errorf("run: %w", err)
	}
	tree, err := d.Tree()
	if err != nil {
		return miniParRun{}, err
	}
	return miniParRun{
		tree: tree, detect: d.Stats(), engine: stats, static: cs,
		outputs: rt.Outputs(), accesses: stream, table: table,
	}, nil
}

// diffTrees compares every communication matrix of two trees (global,
// outside, and each region's own and cumulative) and returns a description
// of the first mismatch, or "".
func diffTrees(a, b *comm.Tree) string {
	if !a.Global.Equal(b.Global) {
		return fmt.Sprintf("global matrix differs:\n%v\nvs\n%v", a.Global.Rows(), b.Global.Rows())
	}
	if !a.Outside.Equal(b.Outside) {
		return "outside-region matrix differs"
	}
	type nodeMats struct{ own, cum *comm.Matrix }
	collect := func(tr *comm.Tree) map[int32]nodeMats {
		m := map[int32]nodeMats{}
		tr.Walk(func(n *comm.Node, _ int) {
			m[n.Region.ID] = nodeMats{n.Own, n.Cumulative}
		})
		return m
	}
	am, bm := collect(a), collect(b)
	if len(am) != len(bm) {
		return fmt.Sprintf("tree node count differs: %d vs %d", len(am), len(bm))
	}
	for id, av := range am {
		bv, ok := bm[id]
		if !ok {
			return fmt.Sprintf("region %d present in only one tree", id)
		}
		if !av.own.Equal(bv.own) {
			return fmt.Sprintf("region %d own matrix differs", id)
		}
		if !av.cum.Equal(bv.cum) {
			return fmt.Sprintf("region %d cumulative matrix differs", id)
		}
	}
	return ""
}

// diffRuns checks full observable equivalence of a coalesced and an
// uncoalesced run: identical communication matrices, detected-dependence
// stats, program outputs and engine scheduling (access counts and final
// clock), with the coalesced run emitting fewer (never more) probes.
func diffRuns(on, off miniParRun) string {
	if d := diffTrees(on.tree, off.tree); d != "" {
		return d
	}
	if on.detect.Detected != off.detect.Detected || on.detect.CommBytes != off.detect.CommBytes {
		return fmt.Sprintf("detection stats differ: on=%d deps/%dB off=%d deps/%dB",
			on.detect.Detected, on.detect.CommBytes, off.detect.Detected, off.detect.CommBytes)
	}
	onEng, offEng := on.engine, off.engine
	onEng.Elided, offEng.Elided = 0, 0
	if onEng != offEng {
		return fmt.Sprintf("engine stats differ (scheduling changed): on=%+v off=%+v", onEng, offEng)
	}
	if len(on.outputs) != len(off.outputs) {
		return fmt.Sprintf("output count differs: %d vs %d", len(on.outputs), len(off.outputs))
	}
	for i := range on.outputs {
		if on.outputs[i] != off.outputs[i] {
			return fmt.Sprintf("output %d differs: %+v vs %+v", i, on.outputs[i], off.outputs[i])
		}
	}
	if uint64(len(on.accesses))+on.engine.Elided != uint64(len(off.accesses)) {
		return fmt.Sprintf("probe accounting broken: %d emitted + %d elided != %d uncoalesced",
			len(on.accesses), on.engine.Elided, len(off.accesses))
	}
	return ""
}

// TestCoalesceDifferentialProperty is the pass's soundness wall: across the
// structured kernels and the repository's example programs, randomised
// granularity bits and thread counts, a coalesced run must be observably
// identical to an uncoalesced run on an exact backend — byte-equal
// communication matrices at every tree node, identical detected volumes,
// outputs and scheduling. The failure message carries the sampled
// configuration so a counterexample replays deterministically.
func TestCoalesceDifferentialProperty(t *testing.T) {
	const seed = 20150908 // any failure reproduces: the rng is per-program
	programs := exampleSources(t)
	for name, src := range coalesceKernels {
		programs[name] = src
	}
	i := 0
	for name, src := range programs {
		name, src := name, src
		i++
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(len(name))))
			for trial := 0; trial < 3; trial++ {
				threads := 2 << rng.Intn(3) // 2, 4, 8
				gran := uint(rng.Intn(7))   // byte .. cache line
				cfg := fmt.Sprintf("seed=%d program=%s trial=%d threads=%d granularity=%d",
					seed+int64(len(name)), name, trial, threads, gran)

				on := runMiniParExact(t, src, threads, gran, true)
				off := runMiniParExact(t, src, threads, gran, false)
				if d := diffRuns(on, off); d != "" {
					t.Fatalf("%s: coalesced run diverged: %s", cfg, d)
				}
				if off.engine.Elided != 0 {
					t.Fatalf("%s: uncoalesced run elided %d accesses", cfg, off.engine.Elided)
				}
				if off.static != (CoalesceStats{}) {
					t.Fatalf("%s: uncoalesced compile reported coalescing stats %+v", cfg, off.static)
				}
			}
		})
	}
}

// TestCoalesceKernelsElide pins that the pass actually bites on the
// structured corpus: every kernel must elide a measurable share of its
// probe stream (the coalescing acceptance floor is 20% on fft and
// stencil), and the reduction kernel must exercise the once-per-loop-entry
// path.
func TestCoalesceKernelsElide(t *testing.T) {
	minShare := map[string]float64{"fft": 0.20, "stencil": 0.20, "reduction": 0.10}
	for name, src := range coalesceKernels {
		t.Run(name, func(t *testing.T) {
			run := runMiniParExact(t, src, 4, 0, true)
			if run.static.Elided+run.static.Once == 0 {
				t.Fatalf("no probes statically marked; stats %+v", run.static)
			}
			total := run.engine.Accesses
			share := float64(run.engine.Elided) / float64(total)
			if share < minShare[name] {
				t.Fatalf("elided %d of %d accesses (%.1f%%), want >= %.0f%%",
					run.engine.Elided, total, 100*share, 100*minShare[name])
			}
			if name == "reduction" && run.static.Once == 0 {
				t.Fatal("reduction kernel exercised no once-per-loop-entry probes")
			}
		})
	}
}

// TestCoalesceShardedIdentity extends the differential wall through the
// sharded analysis pipeline: the coalesced and uncoalesced probe streams,
// replayed through pipeline.Engine on exact per-shard backends at randomised
// shard counts, must produce byte-equal global matrices and trees.
func TestCoalesceShardedIdentity(t *testing.T) {
	const seed = 20150909
	rng := rand.New(rand.NewSource(seed))
	for name, src := range coalesceKernels {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			const threads = 4
			on := runMiniParExact(t, src, threads, 0, true)
			off := runMiniParExact(t, src, threads, 0, false)
			for trial := 0; trial < 3; trial++ {
				shards := 1 + rng.Intn(8)
				cfg := fmt.Sprintf("seed=%d program=%s trial=%d shards=%d", seed, name, trial, shards)
				onTree := shardReplay(t, on, threads, shards)
				offTree := shardReplay(t, off, threads, shards)
				if d := diffTrees(onTree, offTree); d != "" {
					t.Fatalf("%s: sharded replay diverged: %s", cfg, d)
				}
			}
		})
	}
}

// TestCoalesceBoundaries is the table of edge cases the pass must NOT
// coalesce across (and the sound cases it must): barrier boundaries, calls,
// intervening writes, granule aliasing and branch-local probes, asserted
// directly on the compiled IR's probe marks.
func TestCoalesceBoundaries(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// wantElided / wantOnce count marked probes in the whole module.
		wantElided, wantOnce int
	}{
		{
			// Both reads of G[5] must survive: the barrier between them is a
			// cross-thread visibility boundary.
			name: "barrier boundary",
			src: `array G[8];
func main() {
  x = G[5];
  barrier;
  y = G[5];
  out x + y;
}`,
			wantElided: 0,
		},
		{
			// A call may touch anything: both reads survive.
			name: "call boundary",
			src: `array G[8];
func main() {
  x = G[5];
  call touch();
  y = G[5];
  out x + y;
}
func touch() {
  G[5] = 1;
}`,
			wantElided: 0,
		},
		{
			// A write to the probed element between two reads keeps the
			// second read (the write starts a new epoch) but the read
			// directly after the write is covered by it.
			name: "intervening write",
			src: `array G[8];
func main() {
  x = G[5];
  G[5] = x + 1;
  y = G[5];
  out y;
}`,
			wantElided: 1, // only the re-read after the write
		},
		{
			// Writes to two different elements (one granule at coarse
			// granularity) must both survive, and the second write is not
			// covered by the first (different key).
			name: "granule aliasing writes",
			src: `array G[8];
func main() {
  G[0] = 1;
  G[1] = 2;
  G[0] = 3;
  out G[0];
}`,
			// G[0]=3: cover is W but a write to G[1] intervened (epoch
			// cleared); the final read of G[0] is covered by its write.
			wantElided: 1,
		},
		{
			// A same-element write pair with an intervening READ of another
			// element must keep the second write: at coarse granularity the
			// read may alias the written granule, and its reader-set mark
			// must be re-cleared.
			name: "write-over-write blocked by read",
			src: `array G[8];
func main() {
  G[0] = 1;
  x = G[4];
  G[0] = x;
  out G[0];
}`,
			wantElided: 1, // only the final re-read of G[0]
		},
		{
			// Straight-line duplicate reads in one statement collapse.
			name: "duplicate reads collapse",
			src: `array G[8];
func main() {
  x = G[3] * G[3] + G[3];
  out x;
}`,
			wantElided: 2,
		},
		{
			// Branch-local probes: coverage must not flow from the then
			// branch into the code after the if (the branch may not have
			// executed).
			name: "branch-local coverage",
			src: `array G[8];
func main() {
  if tid == 0 {
    x = G[2];
    out x;
  }
  y = G[2];
  out y;
}`,
			wantElided: 0,
		},
		{
			// Loop-invariant read in a store-free loop body: once per entry.
			name: "loop-invariant once",
			src: `array G[8];
func main() {
  s = 0;
  for i = 0..6 {
    s = s + G[2];
  }
  out s;
}`,
			wantOnce: 1,
		},
		{
			// An induction-variable-indexed access is not loop-invariant.
			name: "induction index kept",
			src: `array G[8];
func main() {
  s = 0;
  for i = 0..6 {
    s = s + G[i];
  }
  out s;
}`,
		},
		{
			// work can exhaust the scheduling quantum: it is a boundary, so
			// the repeated read survives and the loop is ineligible.
			name: "work boundary",
			src: `array G[8];
func main() {
  s = 0;
  for i = 0..6 {
    s = s + G[2];
    work 2;
  }
  out s;
}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, _, cs, err := CompileWith(tc.src, Options{Coalesce: true})
			if err != nil {
				t.Fatal(err)
			}
			elided, once := 0, 0
			for _, f := range mod.Funcs {
				for _, in := range f.Code {
					if in.Elide {
						elided++
					}
					if in.OnceAnchor != 0 {
						once++
					}
				}
			}
			if elided != tc.wantElided || once != tc.wantOnce {
				t.Fatalf("marked %d elided / %d once, want %d / %d; stats %+v\n%s",
					elided, once, tc.wantElided, tc.wantOnce, cs, mod.Disassemble())
			}
			if cs.Elided != tc.wantElided || cs.Once != tc.wantOnce {
				t.Fatalf("stats %+v disagree with marks (%d elided / %d once)", cs, elided, once)
			}
			// Every case must also pass the differential check, aliasing
			// granularities included.
			for _, gran := range []uint{0, 3, 6} {
				on := runMiniParExact(t, tc.src, 2, gran, true)
				off := runMiniParExact(t, tc.src, 2, gran, false)
				if d := diffRuns(on, off); d != "" {
					t.Fatalf("granularity %d: coalesced run diverged: %s", gran, d)
				}
			}
		})
	}
}

// TestCoalesceDisassemblyMarks pins the human-readable probe annotations.
func TestCoalesceDisassemblyMarks(t *testing.T) {
	src := `array G[8];
func main() {
  x = G[3] + G[3];
  s = 0;
  for i = 0..4 {
    s = s + G[0];
  }
  out x + s;
}`
	mod, _, _, err := CompileWith(src, Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	dis := mod.Disassemble()
	if !strings.Contains(dis, "!probe:elided") {
		t.Fatalf("no elided probe rendered:\n%s", dis)
	}
	if !strings.Contains(dis, "!probe:once@") {
		t.Fatalf("no once probe rendered:\n%s", dis)
	}
	if !strings.Contains(dis, " !probe\n") {
		t.Fatalf("no plain probe rendered:\n%s", dis)
	}
}

// TestCoalesceVerifierClean: coalescing is metadata-only, so the verifier
// must accept every coalesced module (also enforced by FuzzCoalesce).
func TestCoalesceVerifierClean(t *testing.T) {
	for name, src := range coalesceKernels {
		mod, _, _, err := CompileWith(src, Options{Coalesce: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Verify(mod); err != nil {
			t.Fatalf("%s: coalesced module fails verification: %v", name, err)
		}
		for fi := range mod.Funcs {
			for pc, in := range mod.Funcs[fi].Code {
				if in.Elide && !in.Probed {
					t.Fatalf("%s: %s pc %d elided but unprobed", name, mod.Funcs[fi].Name, pc)
				}
				if in.OnceAnchor != 0 {
					if !in.Probed || in.Elide {
						t.Fatalf("%s: %s pc %d once-mark on non-probe or elided instr", name, mod.Funcs[fi].Name, pc)
					}
					a := int(in.OnceAnchor)
					if a <= 0 || a >= len(mod.Funcs[fi].Code) || mod.Funcs[fi].Code[a].Op != ir.OpRegionEnter {
						t.Fatalf("%s: %s pc %d anchor %d is not a region marker", name, mod.Funcs[fi].Name, pc, a)
					}
				}
			}
		}
	}
}

// TestCoalesceSkipsRejectedFunctions: the pass runs before Verify and shares
// its stack-depth interpretation, so a function that interpretation rejects
// (here an out-of-range jump target or callee, appended after code that
// would coalesce) is left unmarked, without a panic, for Verify to report.
func TestCoalesceSkipsRejectedFunctions(t *testing.T) {
	const src = `array A[4]; func main() { x = A[1] + A[1]; out x; }`
	for _, corrupt := range []ir.Instr{{Op: ir.OpJump, A: 999}, {Op: ir.OpCall, A: 99}} {
		mod, _, _, err := CompileWith(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		main := &mod.Funcs[mod.MainIndex]
		main.Code = append(main.Code, corrupt)
		if st := Coalesce(mod); st != (CoalesceStats{}) {
			t.Errorf("%s: coalesced a function Verify rejects: %+v", corrupt, st)
		}
		if err := Verify(mod); err == nil {
			t.Errorf("%s: Verify accepted it", corrupt)
		}
		main.Code = main.Code[:len(main.Code)-1]
		if st := Coalesce(mod); st.Elided == 0 {
			t.Errorf("%s: the uncorrupted function coalesces nothing, the test shows nothing", corrupt)
		}
	}
}
