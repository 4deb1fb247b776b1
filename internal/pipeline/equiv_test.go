package pipeline

import (
	"math/rand"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// recordStream runs one bundled workload on the deterministic engine and
// captures its access stream plus region table.
func recordStream(t *testing.T, name string, threads int) ([]trace.Access, *trace.Table) {
	t.Helper()
	prog, err := splash.New(name, splash.Config{Threads: threads, Size: splash.SimDev, Seed: 42})
	if err != nil {
		t.Fatalf("splash.New(%s): %v", name, err)
	}
	var stream []trace.Access
	eng := exec.New(exec.Options{Threads: threads, Probe: func(a trace.Access) {
		stream = append(stream, a)
	}})
	if _, err := prog.Run(eng); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return stream, prog.Table()
}

// regionNodes indexes a tree's nodes by region ID.
func regionNodes(tree *comm.Tree) map[int32]*comm.Node {
	nodes := map[int32]*comm.Node{}
	tree.Walk(func(n *comm.Node, _ int) { nodes[n.Region.ID] = n })
	return nodes
}

// treeMismatches counts the region nodes of want that got lacks or holds with
// different matrices or access counts.
func treeMismatches(want, got *comm.Tree) int {
	mismatches := 0
	nodes := regionNodes(got)
	want.Walk(func(n *comm.Node, _ int) {
		m, ok := nodes[n.Region.ID]
		if !ok || !m.Own.Equal(n.Own) || !m.Cumulative.Equal(n.Cumulative) || m.Accesses != n.Accesses {
			mismatches++
		}
	})
	return mismatches
}

// TestEquivalenceAllWorkloads is the subsystem's acceptance test: on the
// deterministic simdev stream of every bundled SPLASH workload, the engine —
// in-thread (K = 0) and sharded (K = 8) — with exact (perfect-signature) shard
// partitions produces
// bit-identical global matrices and a summation-law-valid tree identical to
// the serial detector. This is the regime where sharding provably preserves
// Algorithm 1 semantics: the detection rule is per-address and address
// routing keeps each address's ordered history on one shard. The pipeline
// additionally runs with a randomized per-shard redundancy cache, so the
// test also pins the fast path's exactness through the sharded engine
// (unfiltered serial vs filtered sharded).
func TestEquivalenceAllWorkloads(t *testing.T) {
	const threads = 16
	rng := rand.New(rand.NewSource(0xcace))
	for _, name := range splash.Names() {
		name := name
		cacheBits := uint(rng.Intn(13)) // 0 = filter off for this workload
		t.Run(name, func(t *testing.T) {
			stream, table := recordStream(t, name, threads)

			serial, err := detect.New(detect.Options{
				Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
			})
			if err != nil {
				t.Fatal(err)
			}
			serial.ProcessBatch(stream)
			refTree, err := serial.Tree()
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{0, 8} {
				e, err := New(Options{
					Shards: shards, Threads: threads, Table: table,
					RedundancyCacheBits: cacheBits,
					NewBackend:          PerfectFactory(threads),
				})
				if err != nil {
					t.Fatal(err)
				}
				e.ProcessBatch(stream)
				e.Close()

				g, err := e.Global()
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(serial.Global()) {
					t.Fatalf("%s: K=%d global matrix differs from serial detector", name, shards)
				}
				tree, err := e.Tree()
				if err != nil {
					t.Fatal(err)
				}
				if err := tree.CheckSummationLaw(); err != nil {
					t.Fatalf("%s: K=%d: %v", name, shards, err)
				}
				if n := treeMismatches(refTree, tree); n > 0 {
					t.Fatalf("%s: %d region nodes differ between serial and K=%d trees", name, n, shards)
				}
			}
		})
	}
}

// TestShardedAsymmetricIsDeterministic pins the weaker guarantee the
// approximate backend gets: for a fixed stream and shard count, the sharded
// asymmetric-signature pipeline is bit-reproducible run to run (per-shard
// FIFO order is stream order), even though its collision set differs from
// the serial single-signature analyser's.
func TestShardedAsymmetricIsDeterministic(t *testing.T) {
	const threads, shards = 16, 4
	stream, table := recordStream(t, "radix", threads)
	run := func() *comm.Matrix {
		e, err := New(Options{
			Shards: shards, Threads: threads, Table: table,
			NewBackend: AsymmetricFactory(1<<18, shards, threads, 0.001, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		e.ProcessBatch(stream)
		e.Close()
		g, err := e.Global()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if !run().Equal(run()) {
		t.Error("sharded asymmetric pipeline is not deterministic on a fixed stream")
	}
}

// TestShardedAsymmetricMemoryMatchesBudget checks the partitioned slot
// budget: K shards at ceil(n/K) slots cost the same Eq. 2 memory as one
// serial signature with n slots (up to rounding).
func TestShardedAsymmetricMemoryMatchesBudget(t *testing.T) {
	const threads, shards = 16, 8
	const slots = 1 << 18
	factory := AsymmetricFactory(slots, shards, threads, 0.001, nil)
	var total uint64
	for i := 0; i < shards; i++ {
		b, err := factory(i)
		if err != nil {
			t.Fatal(err)
		}
		total += b.FootprintBytes()
	}
	serial, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.FootprintBytes()
	if total < want || total > want+want/64 {
		t.Errorf("sharded footprint %d not within rounding of serial %d", total, want)
	}
}
