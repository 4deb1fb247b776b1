package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/detect"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// Fig2Step is one access of the paper's Fig. 2 single-location scenario with
// the detector's decision.
type Fig2Step struct {
	Thread        int32
	Kind          trace.Kind
	Communicating bool
	Writer        int32 // producer when Communicating
}

// Fig2Result replays the paper's Fig. 2 memory-access ordering on a single
// location and records which accesses the profiler classifies as
// communicating (black in the figure) versus non-communicating (gray).
type Fig2Result struct {
	Steps []Fig2Step
}

// Fig2 runs the scenario through a real detector with the standard
// asymmetric signature.
func Fig2(env Env) (*Fig2Result, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	env.Threads = 4 // the figure's T1..T3, whatever the sweep runs with
	asym, err := env.newSignature(4096, sig.HashMurmur)
	if err != nil {
		return nil, err
	}
	d, err := detect.New(detect.Options{Threads: env.Threads, Backend: asym})
	if err != nil {
		return nil, err
	}
	// The Fig. 2 ordering: writes create new value epochs; only the first
	// read per (thread, epoch) with a different last writer communicates.
	script := []struct {
		tid  int32
		kind trace.Kind
	}{
		{1, trace.Write},
		{2, trace.Read}, {2, trace.Read},
		{3, trace.Read},
		{1, trace.Read},
		{2, trace.Write},
		{1, trace.Read},
		{3, trace.Read}, {3, trace.Read},
		{2, trace.Read},
	}
	res := &Fig2Result{}
	const addr = 0x1000
	for i, s := range script {
		ev, ok := d.Process(trace.Access{
			Time: uint64(i + 1), Addr: addr, Size: 4,
			Thread: s.tid, Kind: s.kind, Region: trace.NoRegion,
		})
		step := Fig2Step{Thread: s.tid, Kind: s.kind, Communicating: ok}
		if ok {
			step.Writer = ev.Writer
		}
		res.Steps = append(res.Steps, step)
	}
	return res, nil
}

// Render formats the scenario as the figure's timeline.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 2 — communicating (black) vs non-communicating (gray) accesses\n")
	b.WriteString("on a single memory location, as classified live by the detector:\n\n")
	for i, s := range r.Steps {
		mark := "gray  (non-communicating)"
		if s.Communicating {
			mark = fmt.Sprintf("BLACK (communicates: T%d -> T%d)", s.Writer, s.Thread)
		}
		fmt.Fprintf(&b, "t=%-2d T%d %s   %s\n", i+1, s.Thread, s.Kind, mark)
	}
	return b.String()
}
