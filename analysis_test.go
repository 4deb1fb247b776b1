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
	"testing"
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
	if _, err := Record(Options{Workload: "fft", Threads: threads}, &rec); err != nil {
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
