package probe

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"commprof/internal/trace"
)

// blockRecords is the trace encoder's v3 block length in records.
const blockRecords = 4096

// childEnv turns the test binary into a probing target (see TestMain): the
// exit-path tests need a whole process to kill.
const childEnv = "COMMPROF_PROBE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		streamChild()
	}
	os.Exit(m.Run())
}

// reset gives the test a fresh shim recording to a file in its own temporary
// directory (the state is otherwise process-global, like the real runtime's),
// and retires the previous one: its writer exits, its signal watcher hears
// no more.
func reset(t testing.TB) (s *shim, tracePath string) {
	t.Helper()
	old := std
	old.closed.Store(true)
	old.kick()
	old.mu.Lock()
	if old.sigc != nil {
		signal.Stop(old.sigc)
	}
	old.mu.Unlock()
	std = newShim()
	tracePath = filepath.Join(t.TempDir(), "probe.trace")
	t.Setenv("COMMPROF_TRACE", tracePath)
	return std, tracePath
}

var twoRegions = []Region{
	{Name: "main", Parent: -1, File: "main.go", Line: 5},
	{Name: "main#for1", Parent: 0, Loop: true, File: "main.go", Line: 8},
}

// decode reads a finalized trace back, holding it to the stream's contract:
// strictly increasing clocks. It returns the decoder and the records per
// goroutine.
func decode(t *testing.T, path string) (*trace.Decoder, map[int32]int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	return dec, drainOrdered(t, dec)
}

func drainOrdered(t *testing.T, dec *trace.Decoder) map[int32]int {
	t.Helper()
	var prev uint64
	perG := map[int32]int{}
	if err := dec.ForEach(func(a trace.Access) error {
		if a.Time <= prev {
			return fmt.Errorf("records out of temporal order: %d after %d", a.Time, prev)
		}
		prev = a.Time
		perG[a.Thread]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return perG
}

// written is how many records the shim's encoder has taken so far.
func (s *shim) written() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.enc == nil {
		return 0
	}
	return s.enc.Written()
}

// waitFor polls cond — progress of the asynchronous writer, which signals
// nobody — and fails the test if it does not hold in time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestShimRecordsTrace drives the whole shim once: several goroutines probe
// shared memory, Shutdown writes a v3 trace, and the decode round-trip checks
// compact goroutine IDs, the patched counts and the temporal order.
func TestShimRecordsTrace(t *testing.T) {
	_, path := reset(t)
	Register(twoRegions)
	var shared [4]uint64
	const workers, rounds = 3, 100

	g0 := G()
	if again := G(); again != g0 {
		t.Fatal("G() did not return a stable per-goroutine handle")
	}
	g0.W(unsafe.Pointer(&shared[0]), 8, 0)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := G()
			for i := 0; i < rounds; i++ {
				g.R(unsafe.Pointer(&shared[0]), 8, 1)
				g.W(unsafe.Pointer(&shared[1+w%3]), 8, 1)
			}
		}(w)
	}
	wg.Wait()

	Shutdown()
	Shutdown() // idempotent

	dec, perG := decode(t, path)
	if dec.Threads() != workers+1 {
		t.Fatalf("Threads() = %d, want %d", dec.Threads(), workers+1)
	}
	want := 1 + workers*rounds*2
	if dec.Len() != want {
		t.Fatalf("Len() = %d, want %d", dec.Len(), want)
	}
	if dec.Table().Len() != 2 || dec.Table().Regions[1].File != "main.go" {
		t.Fatalf("region table did not round-trip: %+v", dec.Table().Regions)
	}
	for id := int32(0); id <= workers; id++ {
		if perG[id] == 0 {
			t.Fatalf("compact goroutine ID %d missing from trace (saw %v)", id, perG)
		}
	}

	// Probes after Shutdown must be dropped, not crash.
	g0.W(unsafe.Pointer(&shared[0]), 8, 0)
}

// freeRun has goroutines free-running workers issue probes each, with no
// hand-off between them: the interleaving is the scheduler's.
func freeRun(workers, probes int) {
	data := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := G()
			for i := 0; i < probes; i++ {
				g.W(unsafe.Pointer(&data[w]), 8, 1)
			}
		}(w)
	}
	wg.Wait()
}

// TestFreeRunningGoroutines: the watermark merge of unsynchronised goroutines
// yields every record exactly once, in strictly increasing clock order — the
// clocks 1..n are all there, so none is lost or doubled — with each
// goroutine's own count.
func TestFreeRunningGoroutines(t *testing.T) {
	s, path := reset(t)
	Register(twoRegions)
	const workers, probes = 8, 100_000
	freeRun(workers, probes)
	if s.written() == 0 {
		t.Error("nothing was encoded before Shutdown: the stream did not stream")
	}
	Shutdown()

	dec, perG := decode(t, path)
	if dec.Len() != workers*probes || dec.Threads() != workers {
		t.Fatalf("trace holds %d records from %d goroutines, want %d from %d", dec.Len(), dec.Threads(), workers*probes, workers)
	}
	// n strictly increasing clocks drawn from 1..n are exactly 1..n.
	if last := s.clock.Load(); last != workers*probes {
		t.Fatalf("clock stopped at %d, want %d", last, workers*probes)
	}
	for id := int32(0); id < workers; id++ {
		if perG[id] != probes {
			t.Errorf("goroutine %d: %d records, want %d", id, perG[id], probes)
		}
	}
}

// TestProbesSurviveConcurrentSweeps: 8 goroutines probe while another keeps
// asking for sweeps, so the writer takes half-filled batches out from under
// the probes all run long. Every probe has its own address, and the trace
// holds each exactly once, from one goroutine, in strictly increasing clock
// order.
func TestProbesSurviveConcurrentSweeps(t *testing.T) {
	s, path := reset(t)
	Register(twoRegions)
	const workers, probes = 8, 20_000
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				s.kick()
				runtime.Gosched()
			}
		}
	}()
	words := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := range words {
		words[w] = make([]byte, probes)
		wg.Add(1)
		go func(mine []byte) {
			defer wg.Done()
			g := G()
			for i := range mine {
				g.W(unsafe.Pointer(&mine[i]), 1, 1)
			}
		}(words[w])
	}
	wg.Wait()
	close(stop)
	<-swept
	Shutdown()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	by := map[uint64]int32{}
	var prev uint64
	if err := dec.ForEach(func(a trace.Access) error {
		if a.Time <= prev {
			return fmt.Errorf("records out of temporal order: %d after %d", a.Time, prev)
		}
		prev = a.Time
		if _, dup := by[a.Addr]; dup {
			return fmt.Errorf("address %#x recorded twice", a.Addr)
		}
		by[a.Addr] = a.Thread
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(by) != workers*probes {
		t.Fatalf("trace holds %d distinct probes, want %d", len(by), workers*probes)
	}
	for w, mine := range words {
		first, ok := by[uint64(uintptr(unsafe.Pointer(&mine[0])))]
		for i := range mine {
			if g, seen := by[uint64(uintptr(unsafe.Pointer(&mine[i])))]; !ok || !seen || g != first {
				t.Fatalf("worker %d probe %d: recorded %v by goroutine %d, want once by goroutine %d", w, i, seen, g, first)
			}
		}
	}
}

// BenchmarkProbe times one goroutine's W probe, the writer streaming the
// batches to a trace file beside it, and reports ns per probe.
func BenchmarkProbe(b *testing.B) {
	reset(b)
	Register(twoRegions)
	g := G()
	var word uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.W(unsafe.Pointer(&word), 8, 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
	Shutdown()
}

// TestParkedGoroutineDoesNotStall: a goroutine blocked with half a batch holds
// the oldest records of the run; the stream must steal them and keep emitting
// while it stays blocked.
func TestParkedGoroutineDoesNotStall(t *testing.T) {
	s, path := reset(t)
	Register(twoRegions)
	var word uint64
	const parked = batchSize / 2
	ready, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := G()
		for i := 0; i < parked; i++ {
			g.W(unsafe.Pointer(&word), 8, 1)
		}
		close(ready)
		<-release
	}()
	<-ready

	g := G()
	for i := 0; i < 4*batchSize; i++ {
		g.R(unsafe.Pointer(&word), 8, 1)
	}
	waitFor(t, "emission past the parked goroutine's records", func() bool { return s.written() >= parked+batchSize })
	close(release)
	wg.Wait()
	Shutdown()

	dec, perG := decode(t, path)
	if dec.Len() != parked+4*batchSize || perG[0] != parked {
		t.Fatalf("trace holds %d records, %d of the parked goroutine; want %d and %d", dec.Len(), perG[0], parked+4*batchSize, parked)
	}
}

// TestPoolBoundsBuffers counts staging buffers instead of timing anything: a
// run allocates at most the pool, ten times the probes allocate no more, and
// every slot is back when the run is over.
func TestPoolBoundsBuffers(t *testing.T) {
	for _, probes := range []int{50_000, 500_000} {
		s, path := reset(t)
		Register(twoRegions)
		freeRun(4, probes)
		Shutdown()
		if dec, _ := decode(t, path); dec.Len() != 4*probes {
			t.Fatalf("%d probes per goroutine: trace holds %d records, want %d", probes, dec.Len(), 4*probes)
		}
		if len(s.free) != poolSize {
			t.Fatalf("%d probes per goroutine: %d of %d pool slots came back", probes, len(s.free), poolSize)
		}
		allocated := 0
		for i := 0; i < poolSize; i++ {
			if b := <-s.free; b != nil {
				allocated++
			}
		}
		if allocated == 0 || allocated > poolSize {
			t.Errorf("%d probes per goroutine: %d buffers allocated, pool %d", probes, allocated, poolSize)
		}
	}
}

// TestLateRegisterReported: regions declared after the header went out cannot
// reach the trace; that is said on stderr, not silently lost.
func TestLateRegisterReported(t *testing.T) {
	s, path := reset(t)
	Register(twoRegions)
	var word uint64
	g := G()
	for i := 0; i < batchSize; i++ {
		g.W(unsafe.Pointer(&word), 8, 1)
	}
	waitFor(t, "the first emission", func() bool { return s.written() > 0 })

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	Register([]Region{{Name: "late", Parent: -1}})
	os.Stderr = stderr
	w.Close()
	said, _ := io.ReadAll(r)
	if !strings.Contains(string(said), "after the trace header was written") {
		t.Errorf("late Register not reported; stderr: %q", said)
	}
	Shutdown()
	if dec, _ := decode(t, path); dec.Table().Len() != len(twoRegions) {
		t.Errorf("trace declares %d regions, want the %d registered in time", dec.Table().Len(), len(twoRegions))
	}
}

// captured runs f with the process's stdout and stderr redirected and returns
// what it wrote to each (little enough to fit the pipes' buffers).
func captured(t *testing.T, f func()) (stdout, stderr string) {
	t.Helper()
	var pipes [2][2]*os.File
	for i := range pipes {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		pipes[i] = [2]*os.File{r, w}
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = pipes[0][1], pipes[1][1]
	f()
	os.Stdout, os.Stderr = oldOut, oldErr
	var said [2][]byte
	for i, p := range pipes {
		p[1].Close()
		said[i], _ = io.ReadAll(p[0])
		p[0].Close()
	}
	return string(said[0]), string(said[1])
}

// TestOptionsCrossAsOneVariable: live mode takes its analyser options from
// COMMPROF_OPTS and nothing else. A well-formed value arrives; a malformed
// one is reported once and nothing is analysed, while Shutdown still returns
// to the target's own exit path; record mode never reads the variable, so its
// trace is byte for byte the same with and without it.
func TestOptionsCrossAsOneVariable(t *testing.T) {
	var word [2]uint64
	run := func(tracePath, opts string) (stdout, stderr string) {
		reset(t)
		t.Setenv("COMMPROF_TRACE", tracePath)
		t.Setenv("COMMPROF_OPTS", opts)
		Register(twoRegions)
		g := G()
		for i := 0; i < 100; i++ {
			g.W(unsafe.Pointer(&word[i%2]), 8, 1)
			g.R(unsafe.Pointer(&word[(i+1)%2]), 8, 1)
		}
		return captured(t, Shutdown)
	}

	stdout, stderr := run("", "-shards=2 -phases=50")
	if !strings.Contains(stdout, "sharded analysis: 2 shards") || !strings.Contains(stdout, "windows of 50") || stderr != "" {
		t.Errorf("COMMPROF_OPTS did not arrive; stdout:\n%s\nstderr: %q", stdout, stderr)
	}
	if stdout, _ := run("", ""); !strings.Contains(stdout, "inter-thread RAW deps") || strings.Contains(stdout, "sharded analysis") {
		t.Errorf("a stand-alone binary must analyse in-thread; stdout:\n%s", stdout)
	}
	for _, bad := range []string{"-granularity=-1", "-phases=100 -bogus"} {
		stdout, stderr := run("", bad)
		if stdout != "" || strings.Count(stderr, "COMMPROF_OPTS") != 1 {
			t.Errorf("COMMPROF_OPTS=%q: want no report and one diagnostic naming the variable; stdout %q, stderr %q", bad, stdout, stderr)
		}
	}

	var traces [2][]byte
	for i, opts := range []string{"", "-granularity=-1"} {
		path := filepath.Join(t.TempDir(), "record.trace")
		if _, stderr := run(path, opts); strings.Contains(stderr, "COMMPROF_OPTS") {
			t.Errorf("record mode read COMMPROF_OPTS=%q: %s", opts, stderr)
		}
		var err error
		if traces[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(traces[0]) == 0 || !bytes.Equal(traces[0], traces[1]) {
		t.Errorf("record mode's trace depends on COMMPROF_OPTS: %d bytes without, %d with", len(traces[0]), len(traces[1]))
	}
}

// TestBadOptionsReportedBeforeTheRun: live mode parses COMMPROF_OPTS at the
// first Register, so a malformed value is said before the target issues an
// access, not only after the whole run; Shutdown reuses that parse (a value
// changed in between is not read) and prints no report.
func TestBadOptionsReportedBeforeTheRun(t *testing.T) {
	s, _ := reset(t)
	t.Setenv("COMMPROF_TRACE", "")
	t.Setenv("COMMPROF_OPTS", "-bogus")
	_, stderr := captured(t, func() { Register(twoRegions) })
	if !strings.Contains(stderr, "COMMPROF_OPTS") || s.optsErr == nil {
		t.Fatalf("a malformed COMMPROF_OPTS is not reported at Register; held error %v, stderr %q", s.optsErr, stderr)
	}
	if n := s.clock.Load(); n != 0 {
		t.Fatalf("%d accesses recorded before Register returned", n)
	}
	t.Setenv("COMMPROF_OPTS", "")
	var word uint64
	g := G()
	for i := 0; i < 100; i++ {
		g.W(unsafe.Pointer(&word), 8, 1)
	}
	stdout, stderr := captured(t, Shutdown)
	if stdout != "" || strings.Count(stderr, "COMMPROF_OPTS") != 1 {
		t.Errorf("Shutdown after a malformed COMMPROF_OPTS: want no report and the held diagnostic; stdout %q, stderr %q", stdout, stderr)
	}
}

// streamChild is the target the exit-path tests kill: two goroutines probe
// without end (the pool's backpressure holds them to the writer's pace), and
// the main goroutine reports once on stdout how many full blocks are on disk.
// The encoder sits behind a 4 KB bufio.Writer, less than one block, so of the
// blocks it has framed all but the last have reached the file.
func streamChild() {
	Register(twoRegions)
	var data [2]uint64
	for w := range data {
		go func(w int) {
			g := G()
			for {
				g.W(unsafe.Pointer(&data[w]), 8, 1)
			}
		}(w)
	}
	want, _ := strconv.Atoi(os.Getenv(childEnv))
	for std.written()/blockRecords-1 < want {
		time.Sleep(time.Millisecond)
	}
	fmt.Println(std.written()/blockRecords - 1)
	select {}
}

// startStreamChild re-execs the test binary as streamChild and returns once
// it has reported blocks full blocks on disk.
func startStreamChild(t *testing.T, path string, blocks int) (*exec.Cmd, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+strconv.Itoa(blocks), "COMMPROF_TRACE="+path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) // no-op once the child is gone
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("target reported nothing: %v", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil || n < blocks {
		t.Fatalf("target reported %q, want at least %d blocks", line, blocks)
	}
	return cmd, n
}

// TestKilledTargetLeavesSalvageableTrace pins record mode's promise: the trace
// is written while the target runs, so SIGKILL — which no handler sees —
// leaves every block already on disk under an unfinalized header, and both the
// tolerant decoder and commtrace -mode recover get them back in clock order.
func TestKilledTargetLeavesSalvageableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "killed.trace")
	cmd, blocks := startStreamChild(t, path, 8)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.NewDecoder(f); err == nil {
		t.Fatal("a killed target's trace decodes strictly: it must read as unfinalized")
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewDecoderTolerant(f)
	if err != nil {
		t.Fatal(err)
	}
	perG := drainOrdered(t, dec)
	if !dec.Unfinalized() {
		t.Error("Unfinalized() = false for a trace whose writer was killed")
	}
	if got := perG[0] + perG[1]; got < blocks*blockRecords {
		t.Errorf("salvaged %d records, want at least the %d of the %d blocks reported on disk", got, blocks*blockRecords, blocks)
	}

	if testing.Short() {
		return // the rest builds and runs the commtrace driver
	}
	out, err := exec.Command("go", "run", "commprof/cmd/commtrace", "-mode", "recover", "-in", path).CombinedOutput()
	if err != nil {
		t.Fatalf("commtrace -mode recover: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("recovered %d complete records (header unfinalized), 2 goroutines", perG[0]+perG[1]); !strings.Contains(string(out), want) {
		t.Errorf("commtrace -mode recover did not report %q:\n%s", want, out)
	}
}

// TestSIGTERMFinalizesTrace: the shim's handler runs Shutdown, so the trace is
// complete and strictly decodable, and then re-raises, so the process still
// dies of the signal as it would have without the shim.
func TestSIGTERMFinalizesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "term.trace")
	cmd, blocks := startStreamChild(t, path, 2)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Errorf("target ended with %v, want death by SIGTERM", err)
	}
	dec, perG := decode(t, path)
	if dec.Threads() != 2 || dec.Len() < blocks*blockRecords || perG[0]+perG[1] != dec.Len() {
		t.Errorf("finalized trace declares %d records from %d goroutines (decoded %v), want at least %d from 2",
			dec.Len(), dec.Threads(), perG, blocks*blockRecords)
	}
}
