package commprof

import (
	"errors"
	"runtime"
	"strings"
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

// TestEngineSourcesLeaveNoGoroutine pins that an engine source's analyser
// goroutine ends on every way out of a run: a body that panics and one that
// deadlocks (both after several quanta have gone to the analyser), one that
// succeeds, and a Record whose writer fails after the run. Each call returns
// its error or report, and the goroutine count comes back to where it was.
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
	for _, c := range []struct {
		name string
		body func(th *Thread)
		want string // error substring; "" for success
	}{
		{"panic", func(th *Thread) {
			sweep(th)
			if th.ID() == 1 {
				panic("boom")
			}
		}, "boom"},
		{"deadlock", func(th *Thread) {
			// Thread 0 waits at the barrier holding lock 1; the others wait for lock 1.
			sweep(th)
			th.Acquire(1)
			th.Barrier()
			th.Release(1)
		}, "deadlock"},
		{"success", sweep, ""},
	} {
		for _, shards := range []int{0, 2} {
			before := runtime.NumGoroutine()
			rep, err := Run(threads, regions, c.body, Options{AnalysisShards: shards})
			switch {
			case c.want == "" && (err != nil || rep == nil):
				t.Errorf("%s, shards %d: Run = %v, %v; want a report", c.name, shards, rep, err)
			case c.want != "" && (err == nil || rep != nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s, shards %d: Run = %v, %v; want an error containing %q", c.name, shards, rep, err, c.want)
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
