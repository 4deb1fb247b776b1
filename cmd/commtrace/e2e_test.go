package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commprof"
	"commprof/internal/comm"
	"commprof/internal/pipeline"
	"commprof/internal/trace"
)

// record instruments, builds and runs one testdata program through the real
// commtrace driver, returning the decoded trace it recorded (the default
// compact v3 format).
func record(t *testing.T, name string) (*trace.Table, []trace.Access, int, string) {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), name+".trace")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-pkg", filepath.Join("..", "..", "testdata", name), "-o", tracePath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("commtrace exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	var accs []trace.Access
	if err := dec.ForEach(func(a trace.Access) error {
		accs = append(accs, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dec.Table(), accs, dec.Threads(), tracePath
}

// TestEndToEndShardDeterminism drives all three example programs through the
// full stack — instrument, build, run, record — then replays each recorded
// trace through the sharded pipeline on exact (collision-free) backends at 1,
// 2 and 4 shards. The acceptance bar: nonzero cross-goroutine RAW volume and
// bit-identical global matrices regardless of shard count.
func TestEndToEndShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs instrumented binaries")
	}
	for _, name := range []string{"workerpool", "chanpipe", "striped"} {
		t.Run(name, func(t *testing.T) {
			table, accs, threads, _ := record(t, name)
			if threads < 2 {
				t.Fatalf("trace declares %d goroutines, want >= 2", threads)
			}
			if len(accs) == 0 {
				t.Fatal("no accesses recorded")
			}
			var mats []*comm.Matrix
			for _, shards := range []int{1, 2, 4} {
				pe, err := pipeline.New(pipeline.Options{
					Shards: shards, Threads: threads, Table: table,
					NewBackend: pipeline.PerfectFactory(threads),
				})
				if err != nil {
					t.Fatal(err)
				}
				pe.ProcessBatch(accs)
				pe.Close()
				tree, err := pe.Tree()
				if err != nil {
					t.Fatal(err)
				}
				mats = append(mats, tree.Global)
			}
			if mats[0].Total() == 0 {
				t.Fatal("no cross-goroutine RAW communication detected")
			}
			if !mats[0].Equal(mats[1]) || !mats[0].Equal(mats[2]) {
				t.Fatalf("matrices differ across shard counts:\n1: %v\n2: %v\n4: %v",
					mats[0].Rows(), mats[1].Rows(), mats[2].Rows())
			}
		})
	}
}

// TestEndToEndPhaseTimeline pins the remaining acceptance criterion: a real
// program's recorded trace, replayed with phase windows, yields a classified
// pattern timeline attributing communication to labeled source regions.
func TestEndToEndPhaseTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs instrumented binaries")
	}
	_, _, _, tracePath := record(t, "workerpool")
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := commprof.Replay(f, 0, commprof.Options{AnalysisShards: 2, PhaseWindow: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dependencies == 0 || rep.CommBytes == 0 {
		t.Fatalf("expected cross-goroutine RAW, got %d deps / %d bytes", rep.Dependencies, rep.CommBytes)
	}
	if rep.PhaseTimeline == nil || len(rep.PhaseTimeline.Loops) == 0 {
		t.Fatal("no classified phase timeline attached")
	}
	found := false
	for _, l := range rep.PhaseTimeline.Loops {
		if l.Class != "" && l.Bytes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no loop in the timeline carries a classified pattern: %+v", rep.PhaseTimeline.Loops)
	}
	if len(rep.Hotspots) == 0 {
		t.Fatal("no hotspots in the replayed report")
	}
}

// commtrace runs the driver in-process and returns its exit code and output.
func commtrace(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// TestEndToEndExitPaths: a target that leaves through os.Exit(3) — no deferred
// call runs — still finalizes its trace, because the rewriter routes the call
// through the shim; one that dies of a panic on a worker goroutine leaves an
// unfinalized trace holding the blocks written so far. Either way commtrace
// analyses what was recorded and exits with the target's own code.
func TestEndToEndExitPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs instrumented binaries")
	}
	pkg := filepath.Join("..", "..", "testdata", "exitpaths")
	t.Run("os.Exit", func(t *testing.T) {
		tracePath := filepath.Join(t.TempDir(), "exit.trace")
		code, stdout, stderr := commtrace("-pkg", pkg, "-o", tracePath)
		if code != 3 {
			t.Fatalf("commtrace exited %d, want the target's 3:\n%s%s", code, stdout, stderr)
		}
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dec, err := trace.NewDecoder(f)
		if err != nil {
			t.Fatalf("os.Exit(3) left no finalized trace: %v", err)
		}
		// 4 workers x 64 rounds x 256 words, read and written, and main's one read.
		if want := 4*64*256*2 + 1; dec.Len() != want || dec.Threads() != 5 {
			t.Errorf("trace declares %d records from %d goroutines, want %d from 5", dec.Len(), dec.Threads(), want)
		}
		if !strings.Contains(stdout, fmt.Sprintf("workload replay: 5 threads, %d accesses", dec.Len())) {
			t.Errorf("the failed target's trace was not analysed:\n%s%s", stdout, stderr)
		}
	})
	t.Run("panic", func(t *testing.T) {
		t.Setenv("EXITPATHS", "panic")
		tracePath := filepath.Join(t.TempDir(), "panic.trace")
		code, stdout, stderr := commtrace("-pkg", pkg, "-o", tracePath)
		if code != 2 {
			t.Fatalf("commtrace exited %d, want the panicking target's 2:\n%s%s", code, stdout, stderr)
		}
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dec, err := trace.NewDecoderTolerant(f)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := dec.ForEach(func(trace.Access) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		// The panic comes after 32 of 64 rounds; the blocks the writer had
		// framed by then, less the one its buffer may hold back, are on disk.
		if !dec.Unfinalized() || n == 0 || n > 4*32*256*2 {
			t.Errorf("salvaged %d records (unfinalized %v), want some of the first half's %d", n, dec.Unfinalized(), 4*32*256*2)
		}
		if want := fmt.Sprintf("recovered %d complete records (header unfinalized)", n); !strings.Contains(stderr, want) ||
			!strings.Contains(stdout, fmt.Sprintf("%d accesses", n)) {
			t.Errorf("want %q on stderr and a report of those records:\n%s%s", want, stdout, stderr)
		}
	})
}

// TestEndToEndLiveMatchesProfile: -mode live is now "encode, then Replay" in
// the target, -mode profile the same Replay here, so both print the same
// report — every region's own and cumulative bytes and accesses, the totals
// and the hotspots, which is what the shim's report shows of the global and
// per-loop matrices. The programs touch only package-level arrays (fixed
// addresses, so the signature hashes alike in both runs) in an order their
// synchronisation fixes; goroutine IDs may permute, which no printed number
// depends on. The analyser flags travel as one environment variable.
func TestEndToEndLiveMatchesProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs instrumented binaries")
	}
	report := func(stdout string) string {
		var kept []string
		for _, line := range strings.Split(stdout, "\n") {
			if !strings.HasPrefix(line, "peak resident accesses:") { // scheduling-dependent
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for name, wantCode := range map[string]int{"striped": 0, "exitpaths": 3} {
		t.Run(name, func(t *testing.T) {
			// Flags the environment always carried; and, on the program that
			// exits cleanly (each case costs two builds), no analyser flag at
			// all — the defaults must mean the same in the shim — and two
			// flags that used not to arrive.
			cases := []struct{ flags, arrived []string }{
				{[]string{"-shards", "2", "-redundancy-bits", "10"}, []string{"sharded analysis: 2 shards", "redundancy fast path: 2^10 entries"}},
				{nil, nil},
				{[]string{"-sample", "2", "-accuracy-bits", "0"}, []string{"accuracy monitor: 1/1 of granules shadowed"}},
			}
			if wantCode != 0 {
				cases = cases[:1]
			}
			for _, c := range cases {
				args := append([]string{"-pkg", filepath.Join("..", "..", "testdata", name)}, c.flags...)
				var out [2]string
				for i, mode := range []string{"profile", "live"} {
					code, stdout, stderr := commtrace(append(args, "-mode", mode)...)
					if code != wantCode {
						t.Fatalf("%v -mode %s exited %d, want %d:\n%s%s", c.flags, mode, code, wantCode, stdout, stderr)
					}
					out[i] = report(stdout)
				}
				for _, w := range append([]string{"inter-thread RAW deps"}, c.arrived...) {
					if !strings.Contains(out[0], w) {
						t.Fatalf("%v: no report, or a flag did not arrive (%q missing):\n%s", c.flags, w, out[0])
					}
				}
				if c.flags == nil && strings.Contains(out[0], "sharded analysis") {
					t.Errorf("no -shards, yet a sharded analysis:\n%s", out[0])
				}
				if out[0] != out[1] {
					t.Errorf("%v: -mode live reports differently from -mode profile:\n-- profile --\n%s\n-- live --\n%s", c.flags, out[0], out[1])
				}
			}
		})
	}
}
