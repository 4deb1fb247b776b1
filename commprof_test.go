package commprof

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileBundledWorkload(t *testing.T) {
	rep, err := Profile(Options{Workload: "lu_ncb", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "lu_ncb" || rep.Threads != 8 {
		t.Fatalf("header wrong: %+v", rep)
	}
	if rep.Accesses == 0 || rep.Dependencies == 0 || rep.CommBytes == 0 {
		t.Fatalf("empty counters: %+v", rep)
	}
	if rep.Global.Total() != rep.CommBytes {
		t.Fatalf("global matrix total %d != CommBytes %d", rep.Global.Total(), rep.CommBytes)
	}
	if len(rep.Regions) == 0 || len(rep.Hotspots) == 0 {
		t.Fatal("missing regions/hotspots")
	}
	sum := rep.Summary()
	for _, want := range []string{"lu_ncb", "daxpy", "hotspots"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestProfileUnknownWorkload(t *testing.T) {
	if _, err := Profile(Options{Workload: "doom"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Profile(Options{Workload: "fft", InputSize: "enormous"}); err == nil {
		t.Fatal("unknown size accepted")
	}
}

func TestProfileWithPhases(t *testing.T) {
	rep, err := Profile(Options{Workload: "radix", Threads: 8, PhaseWindow: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no phases detected with PhaseWindow set")
	}
	var vol uint64
	for _, p := range rep.Phases {
		if p.End <= p.Start {
			t.Fatalf("bad phase interval %+v", p)
		}
		vol += p.Matrix.Total()
	}
	if vol != rep.CommBytes {
		t.Fatalf("phase volumes %d != total %d", vol, rep.CommBytes)
	}
}

func TestWorkloadsList(t *testing.T) {
	if got := len(Workloads()); got != 14 {
		t.Fatalf("Workloads() = %d entries", got)
	}
}

func TestSignatureMemoryBytesEq2(t *testing.T) {
	// Paper's operating point: ~580 MB.
	mb := float64(SignatureMemoryBytes(10_000_000, 32, 0.001)) / (1 << 20)
	if mb < 500 || mb > 650 {
		t.Fatalf("Eq.2 at paper operating point = %.1f MB", mb)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := Matrix{N: 2, Bytes: [][]uint64{{0, 10}, {2, 0}}}
	if m.Total() != 12 {
		t.Fatalf("Total = %d", m.Total())
	}
	load := m.ThreadLoad()
	if load[0] != 5 || load[1] != 1 {
		t.Fatalf("ThreadLoad = %v", load)
	}
	if !strings.Contains(m.CSV(), "0,10") {
		t.Error("CSV wrong")
	}
	if m.Heatmap() == "" {
		t.Error("empty heatmap")
	}
	bad := Matrix{N: 2, Bytes: [][]uint64{{1}}}
	if !strings.Contains(bad.Heatmap(), "invalid") {
		t.Error("ragged matrix not reported")
	}
}

func TestProfileTrace(t *testing.T) {
	regions := []Region{
		{Name: "main", Parent: -1},
		{Name: "main#loop", Parent: 0, Loop: true},
	}
	accesses := []Access{
		{Kind: WriteAccess, Addr: 0x100, Size: 8, Thread: 0, Region: 1, Time: 1},
		{Kind: ReadAccess, Addr: 0x100, Size: 8, Thread: 1, Region: 1, Time: 2},
		{Kind: ReadAccess, Addr: 0x100, Size: 8, Thread: 1, Region: 1, Time: 3},
	}
	rep, err := ProfileTrace(accesses, regions, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dependencies != 1 || rep.CommBytes != 8 {
		t.Fatalf("trace report: %+v", rep)
	}
	if rep.Global.Bytes[0][1] != 8 {
		t.Fatalf("matrix: %v", rep.Global.Bytes)
	}
	if len(rep.Hotspots) != 1 || rep.Hotspots[0].Region != "main#loop" {
		t.Fatalf("hotspots: %+v", rep.Hotspots)
	}
}

func TestProfileTraceValidation(t *testing.T) {
	if _, err := ProfileTrace(nil, nil, 0, Options{}); err == nil {
		t.Error("zero threads accepted")
	}
	bad := []Access{{Thread: 5}}
	if _, err := ProfileTrace(bad, nil, 2, Options{}); err == nil {
		t.Error("out-of-range thread accepted")
	}
	badRegion := []Access{{Thread: 0, Region: 3}}
	if _, err := ProfileTrace(badRegion, nil, 2, Options{}); err == nil {
		t.Error("unknown region accepted")
	}
	badTable := []Region{{Name: "x", Parent: 7}}
	func() {
		defer func() { recover() }() // AddLoop panics on dangling parent
		if _, err := ProfileTrace(nil, badTable, 2, Options{}); err == nil {
			t.Error("dangling parent accepted")
		}
	}()
}

func TestRunCustomWorkload(t *testing.T) {
	regions := []Region{
		{Name: "produce", Parent: -1},
		{Name: "produce#loop", Parent: 0, Loop: true},
		{Name: "consume", Parent: -1},
		{Name: "consume#loop", Parent: 2, Loop: true},
	}
	rep, err := Run(4, regions, func(t *Thread) {
		base := uint64(0x1000)
		t.InRegion(1, func() {
			if t.ID() == 0 {
				for i := uint64(0); i < 64; i++ {
					t.Write(base+8*i, 8)
				}
			}
		})
		t.Barrier()
		t.InRegion(3, func() {
			if t.ID() != 0 {
				for i := uint64(0); i < 64; i++ {
					t.Read(base+8*i, 8)
				}
			}
		})
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast: thread 0 supplies 3 consumers, 64*8 bytes each. Slot
	// collisions may suppress a handful of first-reads, so allow a small
	// undercount but no overcount.
	const want = 3 * 64 * 8
	if rep.CommBytes > want || rep.CommBytes < want*97/100 {
		t.Fatalf("CommBytes = %d, want ≈%d", rep.CommBytes, want)
	}
	for dst := 1; dst < 4; dst++ {
		if got := rep.Global.Bytes[0][dst]; got < 512*95/100 || got > 512 {
			t.Fatalf("matrix row 0: %v", rep.Global.Bytes[0])
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(0, nil, func(*Thread) {}, Options{}); err == nil {
		t.Error("zero threads accepted")
	}
}

// TestThreadsBeyondArenaRefused pins the signature's thread limit: reader sets
// are exact masks of at most 256 threads, and every entry point refuses one
// more by naming the limit rather than running on some other layout.
func TestThreadsBeyondArenaRefused(t *testing.T) {
	var trace bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &trace); err != nil {
		t.Fatal(err)
	}
	const threads = 257
	for name, run := range map[string]func() (*Report, error){
		"Profile": func() (*Report, error) { return Profile(Options{Workload: "fft", Threads: threads}) },
		"Run": func() (*Report, error) {
			return Run(threads, nil, func(t *Thread) { t.Write(uint64(t.ID())*8, 8) }, Options{})
		},
		"Replay":       func() (*Report, error) { return Replay(bytes.NewReader(trace.Bytes()), threads, Options{}) },
		"ProfileTrace": func() (*Report, error) { return ProfileTrace(nil, nil, threads, Options{}) },
		"sharded": func() (*Report, error) {
			return ProfileTrace(nil, nil, threads, Options{AnalysisShards: 2})
		},
	} {
		rep, err := run()
		if err == nil || !strings.Contains(err.Error(), "limit of 256 threads") {
			t.Errorf("%s at %d threads: report %v, err %v; want the 256-thread limit named", name, threads, rep != nil, err)
		}
	}
	if _, err := ProfileTrace(nil, nil, 256, Options{}); err != nil {
		t.Errorf("256 threads refused: %v", err)
	}
}

// TestSignatureBytesFollowTheLayout pins the profiler's memory to the mask
// arena's layout on every analysing entry point, in-thread and sharded: a
// slot is a 2-byte last writer plus ⌈t/32⌉ 4-byte reader-mask words, and the
// sig_footprint_bytes gauge reads the same figure as the report.
func TestSignatureBytesFollowTheLayout(t *testing.T) {
	const slots = 1 << 12
	for _, threads := range []int{8, 32, 33, 256} {
		var recorded bytes.Buffer
		if _, err := Record(Options{Workload: "fft", Threads: threads, SignatureSlots: slots}, &recorded); err != nil {
			t.Fatal(err)
		}
		accesses := []Access{
			{Kind: WriteAccess, Addr: 8, Size: 8, Thread: 0, Region: -1, Time: 1},
			{Kind: ReadAccess, Addr: 8, Size: 8, Thread: int32(threads - 1), Region: -1, Time: 2},
		}
		runs := []struct {
			name string
			run  func(Options) (*Report, error)
		}{
			{"Profile", func(o Options) (*Report, error) {
				o.Workload, o.Threads = "fft", threads
				return Profile(o)
			}},
			{"Replay", func(o Options) (*Report, error) { return Replay(bytes.NewReader(recorded.Bytes()), threads, o) }},
			{"ProfileTrace", func(o Options) (*Report, error) { return ProfileTrace(accesses, nil, threads, o) }},
		}
		want := (2 + 4*uint64((threads+31)/32)) * slots
		for _, shards := range []int{0, 2} {
			for _, r := range runs {
				rep, err := r.run(Options{SignatureSlots: slots, AnalysisShards: shards, Telemetry: NewTelemetry()})
				if err != nil {
					t.Fatalf("%s t=%d K=%d: %v", r.name, threads, shards, err)
				}
				if rep.SignatureBytes != want {
					t.Errorf("%s t=%d K=%d: SignatureBytes = %d, want %d", r.name, threads, shards, rep.SignatureBytes, want)
				}
				if g := rep.Telemetry.Gauges["sig_footprint_bytes"]; g != float64(want) {
					t.Errorf("%s t=%d K=%d: sig_footprint_bytes = %v, want %d", r.name, threads, shards, g, want)
				}
			}
		}
	}
}

func TestPatternClassifier(t *testing.T) {
	c, err := NewPatternClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	// A pipeline matrix.
	n := 8
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, n)
		if i+1 < n {
			rows[i][i+1] = 1000
		}
	}
	got, err := c.Classify(Matrix{N: n, Bytes: rows})
	if err != nil {
		t.Fatal(err)
	}
	if got != "pipeline" {
		t.Fatalf("Classify = %q, want pipeline", got)
	}
	if _, err := c.Classify(Matrix{N: 2, Bytes: [][]uint64{{1}}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestProfiledWorkloadClassifications(t *testing.T) {
	// End-to-end: profile real workloads and check the classifier maps them
	// to sensible classes.
	c, err := NewPatternClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string][]string{
		"ocean_cp":  {"structured-grid", "n-body"},
		"water_nsq": {"spectral", "barrier", "n-body"}, // dense all-to-all family
	}
	for app, classes := range expect {
		rep, err := Profile(Options{Workload: app, Threads: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Classify(rep.Global)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, want := range classes {
			if got == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s classified as %q, want one of %v", app, got, classes)
		}
	}
}

func TestMapThreadsFacade(t *testing.T) {
	rep, err := Profile(Options{Workload: "ocean_cp", Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapThreads(rep.Global, Topology{Sockets: 4, CoresPerSocket: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalShare < m.IdentityShare {
		t.Fatalf("mapping regressed: %v < %v", m.LocalShare, m.IdentityShare)
	}
	seen := map[int]bool{}
	for _, c := range m.Core {
		if seen[c] {
			t.Fatalf("core reused: %v", m.Core)
		}
		seen[c] = true
	}
	if _, err := MapThreads(rep.Global, Topology{Sockets: 1, CoresPerSocket: 1}); err == nil {
		t.Error("tiny topology accepted for 16 threads")
	}
	if _, err := MapThreads(Matrix{N: 2, Bytes: [][]uint64{{1}}}, Topology{Sockets: 1, CoresPerSocket: 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestProfileGranularity(t *testing.T) {
	fine, err := Profile(Options{Workload: "ocean_ncp", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Profile(Options{Workload: "ocean_ncp", Threads: 8, GranularityBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Line granularity changes the unit of detection: several word-level
	// first-reads of one line collapse into a single per-line dependence,
	// while false sharing adds new ones at partition boundaries. The counts
	// must differ but stay the same order of magnitude.
	if coarse.Dependencies == 0 || coarse.Dependencies == fine.Dependencies {
		t.Fatalf("granularity had no effect: %d vs %d", coarse.Dependencies, fine.Dependencies)
	}
	if coarse.Dependencies < fine.Dependencies/10 || coarse.Dependencies > fine.Dependencies*10 {
		t.Fatalf("granularity changed deps implausibly: %d vs %d", coarse.Dependencies, fine.Dependencies)
	}
}

func TestClassifyWithFamily(t *testing.T) {
	c, err := NewPatternClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, n)
		if i+1 < n {
			rows[i][i+1] = 1000
		}
	}
	class, family, err := c.ClassifyWithFamily(Matrix{N: n, Bytes: rows})
	if err != nil {
		t.Fatal(err)
	}
	if class != "pipeline" || family != "architectural" {
		t.Fatalf("got (%s, %s), want (pipeline, architectural)", class, family)
	}
	if _, _, err := c.ClassifyWithFamily(Matrix{N: 2, Bytes: [][]uint64{{1}}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}
