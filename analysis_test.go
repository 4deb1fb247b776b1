package commprof

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"commprof/internal/sig"
	"commprof/internal/trace"
)

// TestRunRejectsUnknownRegions pins that a Run body naming a region outside
// the declared table fails the run with an error, as ProfileTrace refuses
// the same access, instead of crashing the analyser (a negative id) or
// billing the access outside every region (an id past the table).
func TestRunRejectsUnknownRegions(t *testing.T) {
	regions := []Region{{Name: "main", Parent: -1}, {Name: "main#loop", Parent: 0, Loop: true}}
	for _, c := range []struct {
		name  string
		enter func(th *Thread)
	}{
		{"negative id", func(th *Thread) { th.EnterRegion(-2) }},
		{"id past the table", func(th *Thread) { th.InRegion(int32(len(regions)), func() { th.Read(0x10, 8) }) }},
	} {
		rep, err := Run(2, regions, func(th *Thread) {
			th.InRegion(1, func() { th.Write(0x10+uint64(th.ID())*8, 8) })
			th.InRegion(-1, func() { th.Read(0x10, 8) }) // -1 is "no region", not an error
			if th.ID() == 1 {
				c.enter(th)
				th.Write(0x10, 8)
			}
		}, Options{})
		if err == nil || rep != nil || !strings.Contains(err.Error(), "unknown region") {
			t.Errorf("%s: Run = %v, %v; want an unknown-region error", c.name, rep, err)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestEngineSourcesLeaveNoGoroutine pins that the analyser goroutine behind
// a source ends on every way out of a run: a Run body that panics and one
// that deadlocks (both after several quanta have gone to the analyser), one
// that succeeds, a ProfileTrace that meets an out-of-range thread or an
// unknown region a few quanta in, one that succeeds, and a Record whose
// writer fails after the run. Each call returns its error or report, and the
// goroutine count comes back to where it was.
func TestEngineSourcesLeaveNoGoroutine(t *testing.T) {
	const threads = 4
	regions := []Region{{Name: "main", Parent: -1}, {Name: "main#loop", Parent: 0, Loop: true}}
	sweep := func(th *Thread) {
		th.InRegion(1, func() {
			for i := uint64(0); i < 3*quantumLen; i++ {
				th.Write(0x1000+(i%512)*8, 8)
			}
		})
	}
	run := func(body func(th *Thread)) func(Options) (*Report, error) {
		return func(opts Options) (*Report, error) { return Run(threads, regions, body, opts) }
	}
	// stream is 4 quanta of accesses; profile runs ProfileTrace over it with
	// access 3*quantumLen+5 changed by bad.
	stream := make([]Access, 4*quantumLen)
	for i := range stream {
		stream[i] = Access{Addr: 0x1000 + uint64(i%512)*8, Size: 8, Thread: int32(i % threads), Region: 1, Time: uint64(i)}
		if i%3 == 0 {
			stream[i].Kind = WriteAccess
		}
	}
	profile := func(bad func(a *Access)) func(Options) (*Report, error) {
		return func(opts Options) (*Report, error) {
			s := slices.Clone(stream)
			bad(&s[3*quantumLen+5])
			return ProfileTrace(s, regions, threads, opts)
		}
	}
	for _, c := range []struct {
		name string
		run  func(Options) (*Report, error)
		want string // error substring; "" for success
	}{
		{"panic", run(func(th *Thread) {
			sweep(th)
			if th.ID() == 1 {
				panic("boom")
			}
		}), "boom"},
		{"deadlock", run(func(th *Thread) {
			// Thread 0 waits at the barrier holding lock 1; the others wait for lock 1.
			sweep(th)
			th.Acquire(1)
			th.Barrier()
			th.Release(1)
		}), "deadlock"},
		{"success", run(sweep), ""},
		{"ProfileTrace thread", profile(func(a *Access) { a.Thread = threads }), fmt.Sprintf("access %d has thread %d out of range", 3*quantumLen+5, threads)},
		{"ProfileTrace region", profile(func(a *Access) { a.Region = 7 }), fmt.Sprintf("access %d references unknown region 7", 3*quantumLen+5)},
		{"ProfileTrace success", profile(func(*Access) {}), ""},
	} {
		for _, shards := range []int{0, 2} {
			before := runtime.NumGoroutine()
			rep, err := c.run(Options{AnalysisShards: shards})
			switch {
			case c.want == "" && (err != nil || rep == nil):
				t.Errorf("%s, shards %d: %v, %v; want a report", c.name, shards, rep, err)
			case c.want != "" && (err == nil || rep != nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s, shards %d: %v, %v; want an error containing %q", c.name, shards, rep, err, c.want)
			}
			waitGoroutines(t, before)
		}
	}

	before := runtime.NumGoroutine()
	rep, err := Record(Options{Workload: "fft", InputSize: "simdev", Threads: threads}, failingWriter{})
	if err == nil || rep != nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Record to a failing writer = %v, %v; want the write error", rep, err)
	}
	waitGoroutines(t, before)
}

// TestConcurrentRunsShareNoRing pins that runs in flight at once never share
// a quantum buffer, though rings recycles them from run to run: Replay and
// ProfileTrace of one recorded trace, on four goroutines at once, each give
// the report a lone Replay gives. It is meant for -race.
func TestConcurrentRunsShareNoRing(t *testing.T) {
	const threads = 8
	var rec bytes.Buffer
	if _, err := Record(Options{Workload: "fft", InputSize: "simsmall", Threads: threads}, &rec); err != nil {
		t.Fatal(err)
	}
	data := rec.Bytes()
	accesses, regions, _ := publicTrace(t, data)
	want, err := Replay(bytes.NewReader(data), threads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Accesses < 3*quantumLen {
		t.Fatalf("%d accesses: want more than the ring holds", want.Accesses)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				var rep *Report
				var err error
				if g%2 == 0 {
					rep, err = Replay(bytes.NewReader(data), threads, Options{})
				} else {
					rep, err = ProfileTrace(accesses, regions, threads, Options{})
				}
				if err != nil {
					t.Error(err)
					return
				}
				rep.Workload = want.Workload
				if !reflect.DeepEqual(rep, want) {
					t.Errorf("goroutine %d: a concurrent run's report differs from a lone Replay's", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRingWaitParksOnAStall is the wall that each of the ring's two waits
// parks when the other stage stalls, so a spin put in front of either must
// stay bounded: a SPLASH run whose tap's writer stops 200 ms when the first
// quantum reaches it, on the analyser goroutine, so the source waits, and a
// Run whose body stops 200 ms on a timer after two full quanta, so the
// analyser waits. At GOMAXPROCS 2 the process's user CPU time across each
// stall stays below 50 ms, and the stage probes time the waiting side's
// wait. At one P each report is the same.
func TestRingWaitParksOnAStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	// stop sleeps through the stall and reports the user CPU time the
	// process spent meanwhile.
	stop := func(spent *time.Duration) {
		var before, after syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &before)
		time.Sleep(stall)
		syscall.Getrusage(syscall.RUSAGE_SELF, &after)
		*spent = time.Duration(after.Utime.Nano() - before.Utime.Nano())
	}
	regions := []Region{{Name: "main", Parent: -1}}
	for _, c := range []struct {
		name string
		run  func(opts Options, spent *time.Duration) (*Report, error)
		wait func(*OverheadReport) uint64 // the waiting side's wait
	}{
		{"the source stalls", func(opts Options, spent *time.Duration) (*Report, error) {
			return Run(2, regions, func(th *Thread) {
				for i := uint64(0); i < quantumLen; i++ {
					th.Write(0x1000+(i*2+uint64(th.ID()))%512*8, 8)
				}
				th.Barrier() // two quanta are with the analyser
				if th.ID() == 0 {
					stop(spent)
				}
				th.Read(0x1000+uint64(1-th.ID())*8, 8)
			}, opts)
		}, func(o *OverheadReport) uint64 { return o.AnalyserWaitNanos }},
		{"the analyser stalls", func(opts Options, spent *time.Duration) (*Report, error) {
			opts.Workload, opts.InputSize, opts.Threads = "fft", "simsmall", 4
			opts.setDefaults()
			src, err := splashSource(opts)
			if err != nil {
				return nil, err
			}
			if src.tap, err = trace.NewDynamicEncoder(&stallingWriter{stall: func() { stop(spent) }}, src.table); err != nil {
				return nil, err
			}
			return profileEngine(opts, src)
		}, func(o *OverheadReport) uint64 { return o.SourceWaitNanos }},
	} {
		run := func(procs int) (*Report, time.Duration) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var spent time.Duration
			rep, err := c.run(Options{Telemetry: NewTelemetry()}, &spent)
			if err != nil {
				t.Fatal(err)
			}
			if w := time.Duration(c.wait(rep.Overhead)); w < stall/2 {
				t.Errorf("%s, GOMAXPROCS %d: the other stage waited %v across a %v stall, want most of it", c.name, procs, w, stall)
			}
			rep.Pipeline, rep.Telemetry, rep.Overhead = nil, nil, nil
			return rep, spent
		}
		want, spent := run(2)
		if spent >= 50*time.Millisecond {
			t.Errorf("%s, GOMAXPROCS 2: %v of user CPU time across a %v stall, want under 50ms: the ring's wait did not park", c.name, spent, stall)
		}
		if got, _ := run(1); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, GOMAXPROCS 1: the report differs from the one at GOMAXPROCS 2", c.name)
		}
	}
}

// stallingWriter discards what it is given, after calling stall in its
// first Write; Seek is a no-op.
type stallingWriter struct {
	stall   func()
	stalled bool
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if !w.stalled {
		w.stalled = true
		w.stall()
	}
	return len(p), nil
}

func (*stallingWriter) Seek(int64, int) (int64, error) { return 0, nil }

// TestArenaReuseLeavesNoTrace is the facade's lifecycle wall for the
// signature arenas one run hands on to the next (sig.Asymmetric.Release):
// runs at other thread and slot counts — two of them at other layouts of the
// reference's byte size, which take its arenas —, a Replay of a cut-off
// trace, a Run whose body panics after three quanta, and Replay and
// ProfileTrace on four goroutines at once, each followed by the reference
// Replay with telemetry on. The reference reads two quanta of addresses
// before anything writes them, then runs fft's trace, so a slot that comes
// back holding an earlier run's writer or readers shows in its report. Every
// report equals the one the same call gives on fresh arenas, and no run
// drops a stale writer. It is meant for -race -count=10.
func TestArenaReuseLeavesNoTrace(t *testing.T) {
	const threads = 8
	var rec bytes.Buffer
	if _, err := Record(Options{Workload: "fft", InputSize: "simsmall", Threads: threads}, &rec); err != nil {
		t.Fatal(err)
	}
	fft, regions, table := publicTrace(t, rec.Bytes())
	accesses := make([]Access, 2*quantumLen, 2*quantumLen+len(fft))
	for i := range accesses {
		accesses[i] = Access{Addr: 0x1000 + uint64(i)*8, Size: 8, Thread: int32(i % threads), Time: uint64(i)}
	}
	for _, a := range fft {
		a.Time += 2 * quantumLen
		accesses = append(accesses, a)
	}
	data := encodeTrace(t, accesses, table, threads)
	// 5·2^17 slots of 6 bytes (t ≤ 32) and 3·2^17 of 10 bytes (t = 40) are
	// both 3 932 160 bytes, as is each of two shards' half of 5·2^18.
	ref := Options{SignatureSlots: 5 << 17}
	others := []Options{
		{Workload: "fft", Threads: 40, SignatureSlots: 3 << 17},
		{Workload: "lu_ncb", Threads: 16, SignatureSlots: 5 << 18, AnalysisShards: 2},
		{Workload: "radix", Threads: 4},
	}
	replay := func(data []byte, opts Options) (*Report, error) {
		return Replay(bytes.NewReader(data), threads, opts)
	}
	// bare drops the sections that time the run or its queues.
	bare := func(rep *Report) *Report {
		rep.Pipeline, rep.Telemetry, rep.Overhead = nil, nil, nil
		return rep
	}
	// fresh runs a call on fresh arenas: releasing a signature of another
	// size drops every arena released before it.
	fresh := func(run func() (*Report, error)) *Report {
		s, err := sig.NewAsymmetric(sig.Options{Slots: 1, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return bare(rep)
	}
	want := fresh(func() (*Report, error) { return replay(data, ref) })
	if want.Accesses < 5*quantumLen {
		t.Fatalf("%d accesses: want a trace that a cut at 4/5 leaves more than three quanta of", want.Accesses)
	}
	wantOthers := make([]*Report, len(others))
	for i, o := range others {
		wantOthers[i] = fresh(func() (*Report, error) { return Profile(o) })
	}
	check := func(after string) {
		t.Helper()
		opts := ref
		opts.Telemetry = NewTelemetry()
		rep, err := replay(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := rep.Telemetry.Counters["detect_stale_writer_drops_total"]; n != 0 {
			t.Errorf("after %s: %d stale writers dropped", after, n)
		}
		if !reflect.DeepEqual(bare(rep), want) {
			t.Errorf("after %s: the reference Replay's report differs from its run on fresh arenas", after)
		}
	}

	for i, o := range others {
		rep, err := Profile(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare(rep), wantOthers[i]) {
			t.Errorf("%s at %d threads: the report differs from its run on fresh arenas", o.Workload, o.Threads)
		}
		check(fmt.Sprintf("%s at %d threads, %d slots", o.Workload, o.Threads, o.SignatureSlots))
	}

	if rep, err := replay(data[:len(data)*4/5], ref); err == nil {
		t.Fatalf("Replay of a cut-off trace = %v, want an error", rep)
	}
	check("a cut-off Replay")

	_, err := Run(threads, []Region{{Name: "main", Parent: -1}}, func(th *Thread) {
		for i := uint64(0); i < 3*quantumLen/threads; i++ {
			th.Write(0x1000+(i*threads+uint64(th.ID()))%(2*quantumLen)*8, 8)
		}
		if th.ID() == 1 {
			panic("boom")
		}
	}, ref)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run whose body panics = %v, want the panic", err)
	}
	check("a Run that panicked")

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rep *Report
			var err error
			if g%2 == 0 {
				rep, err = replay(data, ref)
			} else {
				rep, err = ProfileTrace(accesses, regions, threads, ref)
			}
			if err != nil {
				t.Error(err)
				return
			}
			rep.Workload = want.Workload
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("goroutine %d: a concurrent run's report differs from a lone Replay's", g)
			}
		}()
	}
	wg.Wait()
	check("four concurrent runs")
}
