// Command bench is commprof's one benchmark: seven workloads over the access
// path, each op checked against an exact oracle, measured end to end with
// tracing off and layer by layer in a separate staged pass. See README.md.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run; the last line is the result
//	bench [-runs R] [-out FILE]                       every workload, R runs each, one results file
//	bench -compare a.json b.json                      two results files, metric by metric
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	runChildIfAsked()
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print its result line")
		seed     = flag.Int64("seed", 1, "workload seed: Options.Seed and the generators' seed")
		seconds  = flag.Float64("seconds", 10, "how long one run measures (BENCHMARK.json's run_seconds)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from staged passes")
		passes   = flag.Int("passes", 0, "measure exactly this many passes instead of -seconds")
		traceOut = flag.String("trace-out", "", "where the staged passes' spans are written (default: a temporary file)")
		runs     = flag.Int("runs", 3, "all-workloads mode: end-to-end runs per workload, on seeds seed..seed+runs-1")
		out      = flag.String("out", "", "all-workloads mode: results file (default: standard output)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments; exits 1 if a metric is worse")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files")
			break
		}
		var worse bool
		if worse, err = compareFiles(flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(*name, config{seed: *seed}, *seconds, *passes, *traced == 1, *traceOut)
	default:
		err = runAll(*seed, *seconds, *passes, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne is the driver's entry: one workload, one result line, last.
func runOne(name string, cfg config, seconds float64, passes int, traced bool, traceOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	budget := time.Duration(seconds * float64(time.Second))
	var res result
	var err error
	if traced {
		if traceOut == "" {
			f, err := os.CreateTemp("", "commprof-bench-spans-*.json")
			if err != nil {
				return err
			}
			traceOut = f.Name()
			f.Close()
		}
		res, err = runTraced(w, cfg, budget, passes, traceOut)
	} else {
		res, err = runEndToEnd(w, cfg, budget, passes)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// manifest says where and on what a results file was taken.
type manifest struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"` // 0: as many as fit in Seconds
	Runs       int     `json:"runs"`
	Start      string  `json:"start"`
}

func newManifest(seed int64, seconds float64, passes, runs int) manifest {
	m := manifest{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Passes: passes, Runs: runs,
		Start: time.Now().UTC().Format(time.RFC3339),
	}
	m.Host, _ = os.Hostname() // empty when the host has no name
	if head, err := osexec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(head))
		status, err := osexec.Command("git", "status", "--porcelain").Output()
		m.Dirty = err != nil || len(bytes.TrimSpace(status)) > 0
	}
	return m
}

type runRecord struct {
	Seed   int64  `json:"seed"`
	Result result `json:"result"`
}

type workloadRecord struct {
	Name   string      `json:"name"`
	Runs   []runRecord `json:"runs"`   // end to end, tracing off
	Traced *runRecord  `json:"traced"` // per layer, one staged run
}

type resultsFile struct {
	Manifest  manifest         `json:"manifest"`
	Workloads []workloadRecord `json:"workloads"`
}

// runAll runs every workload in a child process of its own, so peak RSS and
// heap state belong to that workload alone.
func runAll(seed int64, seconds float64, passes, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	spans, err := os.MkdirTemp("", "commprof-bench-spans-")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: staged-pass spans in", spans)
	file := resultsFile{Manifest: newManifest(seed, seconds, passes, runs)}
	child := func(w *workload, s int64, traced int) (*runRecord, error) {
		cmd := osexec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
			"-passes", fmt.Sprint(passes), "-trace", fmt.Sprint(traced), "-trace-out", filepath.Join(spans, w.Name+".json"))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		fmt.Fprintln(os.Stderr, strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.Name, s, err)
		}
		rec := &runRecord{Seed: s}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line %q: %w", w.Name, s, lines[len(lines)-1], err)
		}
		return rec, nil
	}
	for _, w := range workloads {
		rec := workloadRecord{Name: w.Name}
		for r := 0; r < runs; r++ {
			run, err := child(w, seed+int64(r), 0)
			if err != nil {
				return err
			}
			rec.Runs = append(rec.Runs, *run)
		}
		if rec.Traced, err = child(w, seed, 1); err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, rec)
	}
	enc, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	printSpreads(file)
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
