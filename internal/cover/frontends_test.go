package cover_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"commprof/internal/instrument"
	"commprof/internal/passes"
)

// access is one constant-index access of a shared array A.
type access struct {
	write bool
	index int
}

// TestFrontendsElideTheSameProbes writes straight-line, constant-index
// access sequences once as a MiniPar block and once as a Go block, one
// access per statement, and requires the IR coalescer and the Go-source
// coalescer to elide probes at the same positions: both decide coverage by
// the one rule in this package.
func TestFrontendsElideTheSameProbes(t *testing.T) {
	r := func(i int) access { return access{false, i} }
	w := func(i int) access { return access{true, i} }
	cases := map[string][]access{
		"repeated reads":                {r(0), r(0), r(1), r(0), r(1)},
		"writes cover reads and writes": {w(0), r(0), w(1), w(1), r(1)},
		"a read keeps the next write":   {w(0), w(0), r(2), w(0), w(0)},
		"a kept write clears coverage":  {r(0), r(1), w(2), r(0), r(1), r(2)},
		"mixed":                         {r(3), w(3), r(3), r(4), w(3), w(4), w(4), r(3)},
	}
	for name, seq := range cases {
		ir := miniParElided(t, seq)
		gosrc := goElided(t, seq)
		if !reflect.DeepEqual(ir, gosrc) {
			t.Errorf("%s: IR pass elides %v, Go-source pass elides %v", name, ir, gosrc)
		}
		if !slices.Contains(ir, true) {
			t.Errorf("%s: nothing elided, the sequence tests nothing", name)
		}
	}
}

// miniParElided compiles seq as main's body with coalescing on and reports,
// per probed access in code order, whether the pass marked it elided.
func miniParElided(t *testing.T, seq []access) []bool {
	t.Helper()
	var b strings.Builder
	b.WriteString("array A[8];\nfunc main() {\n")
	for _, a := range seq {
		if a.write {
			fmt.Fprintf(&b, "  A[%d] = 1;\n", a.index)
		} else {
			fmt.Fprintf(&b, "  x = A[%d];\n", a.index)
		}
	}
	b.WriteString("}\n")
	mod, _, _, err := passes.CompileWith(b.String(), passes.Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	var elided []bool
	for _, in := range mod.Funcs[mod.FindFunc("main")].Code {
		if in.Probed {
			if in.OnceAnchor != 0 {
				t.Fatalf("straight-line probe marked once-per-loop: %s", in)
			}
			elided = append(elided, in.Elide)
		}
	}
	if len(elided) != len(seq) {
		t.Fatalf("%d probed accesses, want %d", len(elided), len(seq))
	}
	return elided
}

// goElided rewrites seq as a Go function body with coalescing on and
// reports, per access statement, whether its probe (which the rewriter puts
// on the line before the statement) was dropped.
func goElided(t *testing.T, seq []access) []bool {
	t.Helper()
	var b strings.Builder
	b.WriteString("package p\n\nvar A [8]int64\n\nfunc f() {\n")
	for _, a := range seq {
		if a.write {
			fmt.Fprintf(&b, "\tA[%d] = 1\n", a.index)
		} else {
			fmt.Fprintf(&b, "\t_ = A[%d]\n", a.index)
		}
	}
	b.WriteString("}\n")
	res, err := instrument.SourcesOpts(map[string][]byte{"p.go": []byte(b.String())}, instrument.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var elided []bool
	probed := false
	for _, line := range strings.Split(string(res.Files["p.go"]), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "_cp.R(") || strings.HasPrefix(line, "_cp.W("):
			probed = true
		case strings.HasPrefix(line, "A[") || strings.HasPrefix(line, "_ = A["):
			elided = append(elided, !probed)
			probed = false
		}
	}
	if len(elided) != len(seq) {
		t.Fatalf("%d access statements in the rewrite, want %d:\n%s", len(elided), len(seq), res.Files["p.go"])
	}
	return elided
}
