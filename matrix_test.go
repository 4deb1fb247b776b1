package commprof

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// entryPoints is every public way into the profiler, each reduced to "run
// with these analyser options": the sources differ, the analyser is one.
func entryPoints(t *testing.T) map[string]func(Options) (*Report, error) {
	t.Helper()
	splash := func(o Options) Options {
		o.Workload, o.Threads = "fft", 8
		return o
	}
	var recorded bytes.Buffer
	if _, err := Record(splash(Options{}), &recorded); err != nil {
		t.Fatal(err)
	}
	regions := []Region{{Name: "main", Parent: -1}, {Name: "main#loop", Parent: 0, Loop: true}}
	// Four threads take turns writing a block the others then read, twice
	// over so same-thread repeats exist for the redundancy cache.
	var accesses []Access
	for round := 0; round < 8; round++ {
		w := int32(round % 4)
		for a := uint64(0); a < 64; a++ {
			accesses = append(accesses, Access{Kind: WriteAccess, Addr: a * 8, Size: 8, Thread: w, Region: 1, Time: uint64(len(accesses) + 1)})
		}
		for pass := 0; pass < 2; pass++ {
			for r := int32(0); r < 4; r++ {
				for a := uint64(0); a < 64; a++ {
					accesses = append(accesses, Access{Kind: ReadAccess, Addr: a * 8, Size: 8, Thread: r, Region: 1, Time: uint64(len(accesses) + 1)})
				}
			}
		}
	}
	body := func(th *Thread) {
		th.InRegion(1, func() {
			for round := 0; round < 4; round++ {
				if int(th.ID()) == round {
					for a := uint64(0); a < 64; a++ {
						th.Write(a*8, 8)
					}
				}
				th.Barrier()
				for pass := 0; pass < 2; pass++ {
					for a := uint64(0); a < 64; a++ {
						th.Read(a*8, 8)
					}
				}
				th.Barrier()
			}
		})
	}
	const src = `
array A[256];
array B[256];
func main() {
  for r = 0..4 {
    parfor i = 0..256 { A[i] = i + r; }
    barrier;
    parfor i = 0..256 { B[i] = A[(i + 64) % 256] + A[(i + 64) % 256]; }
    barrier;
  }
}`
	return map[string]func(Options) (*Report, error){
		"Profile": func(o Options) (*Report, error) { return Profile(splash(o)) },
		"Record":  func(o Options) (*Report, error) { return Record(splash(o), io.Discard) },
		"Replay": func(o Options) (*Report, error) {
			return Replay(bytes.NewReader(recorded.Bytes()), 8, o)
		},
		"ProfileTrace": func(o Options) (*Report, error) { return ProfileTrace(accesses, regions, 4, o) },
		"Run":          func(o Options) (*Report, error) { return Run(4, regions, body, o) },
		"ProfileMiniPar": func(o Options) (*Report, error) {
			rep, _, err := ProfileMiniPar(src, 4, nil, o)
			return rep, err
		},
	}
}

// analyserOptions is one setting of every analyser option with the report
// section it must produce.
var analyserOptions = []struct {
	name    string
	set     func(*Options)
	present func(*Report) bool // nil: the option value must be refused by name
}{
	{"AnalysisShards", func(o *Options) { o.AnalysisShards = 2 },
		func(r *Report) bool { return r.Pipeline != nil && r.Pipeline.Shards == 2 }},
	{"PhaseWindow", func(o *Options) { o.PhaseWindow = 500 },
		func(r *Report) bool {
			return r.PhaseTimeline != nil && len(r.PhaseTimeline.Windows) > 0 && len(r.Phases) > 0
		}},
	{"RedundancyCacheBits", func(o *Options) { o.RedundancyCacheBits = 10 },
		func(r *Report) bool { return r.Redundancy != nil && r.Redundancy.Hits > 0 }},
	{"AccuracyTargetFPR", func(o *Options) { o.AccuracyTargetFPR = 0.05 },
		func(r *Report) bool { return r.Accuracy != nil && r.Accuracy.SampledAccesses > 0 }},
	{"Sample", func(o *Options) { o.SamplePeriod = 4 },
		func(r *Report) bool { return r.SampleFraction == 0.25 }},
	// A shift by the whole address width leaves one granule: refused, not
	// analysed into a meaningless report.
	{"GranularityBits", func(o *Options) { o.GranularityBits = 64 }, nil},
}

// TestOptionMatrix pins that every analyser option is honoured by every entry
// point: entry point × option, and entry point × all options together, the
// matching report section must be there.
// The analyser is built in one place (newAnalysis), so a cell can only fail
// if an entry point grows private wiring again.
func TestOptionMatrix(t *testing.T) {
	for name, run := range entryPoints(t) {
		base, err := run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base.Dependencies == 0 {
			t.Fatalf("%s: baseline run detected nothing; the cell checks below would be vacuous", name)
		}
		for _, opt := range analyserOptions {
			var o Options
			opt.set(&o)
			rep, err := run(o)
			if opt.present == nil {
				if err == nil || !strings.Contains(err.Error(), opt.name) {
					t.Errorf("%s × %s: err = %v, want a refusal naming the option", name, opt.name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s × %s: %v", name, opt.name, err)
				continue
			}
			if !opt.present(rep) {
				t.Errorf("%s × %s: option ignored — report section missing or empty", name, opt.name)
			}
			if opt.name == "Sample" && rep.Dependencies >= base.Dependencies {
				t.Errorf("%s × Sample: %d dependencies with 1/4 of reads analysed, %d without sampling",
					name, rep.Dependencies, base.Dependencies)
			}
		}
		// And every accepted option at once: no layer displaces another.
		var all Options
		for _, opt := range analyserOptions {
			if opt.present != nil {
				opt.set(&all)
			}
		}
		rep, err := run(all)
		if err != nil {
			t.Fatalf("%s × every option: %v", name, err)
		}
		for _, opt := range analyserOptions {
			if opt.present != nil && !opt.present(rep) {
				t.Errorf("%s × every option: %s ignored — report section missing or empty", name, opt.name)
			}
		}
	}
}

// TestRecordUnderSamplingWritesCompleteTrace pins where Record's tap sits: in
// front of the sampling gate. The sampled run's own report is thinned, but
// its trace replays, unsampled, to exactly what an unsampled Profile reports.
func TestRecordUnderSamplingWritesCompleteTrace(t *testing.T) {
	base := Options{Workload: "fft", Threads: 8}
	sampled := base
	sampled.SamplePeriod = 8
	var buf bytes.Buffer
	thinned, err := Record(sampled, &buf)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Profile(base)
	if err != nil {
		t.Fatal(err)
	}
	if thinned.Dependencies >= live.Dependencies {
		t.Fatalf("sampled Record found %d dependencies, unsampled Profile %d", thinned.Dependencies, live.Dependencies)
	}
	replayed, err := Replay(&buf, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Accesses != live.Accesses || replayed.Dependencies != live.Dependencies ||
		!reflect.DeepEqual(replayed.Global, live.Global) || !reflect.DeepEqual(replayed.Regions, live.Regions) {
		t.Fatalf("trace recorded under sampling is not the complete run: replay %d accesses / %d deps, live %d / %d",
			replayed.Accesses, replayed.Dependencies, live.Accesses, live.Dependencies)
	}
}
