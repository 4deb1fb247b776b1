package instrument

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"commprof/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the rewriter golden files")

// TestGolden pins the rewriter's full output — region table, instrumented
// sources and generated registration file — over the three shipped example
// programs. Run with -update after an intentional rewriter change.
func TestGolden(t *testing.T) {
	for _, name := range []string{"workerpool", "chanpipe", "striped"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("..", "..", "testdata", name)
			res, err := DirOpts(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Probes == 0 {
				t.Fatal("no probes injected")
			}
			got := goldenRender(t, res)

			// Region UIDs must be reproducible: a second instrumentation of
			// the same source has to produce byte-identical output.
			again, err := DirOpts(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, goldenRender(t, again)) {
				t.Fatal("instrumenting the same package twice produced different output")
			}

			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/instrument -run TestGolden -update`)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("golden mismatch for %s; rerun with -update if intended.\n--- got ---\n%s", name, got)
			}
		})
	}
}

// goldenRender flattens a Result into one reviewable text blob.
func goldenRender(t *testing.T, res *Result) []byte {
	t.Helper()
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "package %s probes=%d\n", res.PackageName, res.Probes)
	sb.WriteString("-- regions --\n")
	for i, r := range res.Table.Regions {
		kind := "func"
		if r.Kind == trace.LoopRegion {
			kind = "loop"
		}
		fmt.Fprintf(&sb, "%d %s %s parent=%d %s:%d\n", i, kind, r.Name, r.Parent, r.File, r.Line)
	}
	names := make([]string, 0, len(res.Files))
	for n := range res.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "-- %s --\n", n)
		sb.Write(res.Files[n])
	}
	reg, err := RegistrationSource(res)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "-- %s --\n", registrationFile)
	sb.Write(reg)
	return sb.Bytes()
}
