package instrument

import (
	"strings"
	"testing"
)

// snipOn instruments with the coalescer enabled (the default pipeline).
func snipOn(t *testing.T, src string) (*Result, string) {
	t.Helper()
	res, err := SourcesOpts(map[string][]byte{"snip.go": []byte(src)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, string(res.Files["snip.go"])
}

// TestCoalesceRewrite is the table of block-local collapse decisions over
// go/ast: which duplicate probes the coalescer must drop, and which
// boundaries — calls, channel operations, control flow, identifier
// invalidation — it must never collapse across.
func TestCoalesceRewrite(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// wantProbes / wantCoalesced pin Result counters; needles must appear
		// in the output the given number of times.
		wantProbes, wantCoalesced int
		counts                    map[string]int
	}{
		{
			// x*x + x reads the same var three times in one statement: one
			// probe survives.
			name: "duplicate reads collapse",
			src: `package p
var g int64
func f() int64 {
	return g*g + g
}`,
			wantProbes: 1, wantCoalesced: 2,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 0)": 1},
		},
		{
			// A write probe covers the immediately following re-read.
			name: "write covers read",
			src: `package p
var g, h int64
func f() {
	g = 1
	h = g
}`,
			wantProbes: 2, wantCoalesced: 1,
			counts: map[string]int{
				"_cp.W(unsafe.Pointer(&g), 8, 0)": 1,
				"_cp.W(unsafe.Pointer(&h), 8, 0)": 1,
				"_cp.R(unsafe.Pointer(&g), 8, 0)": 0,
			},
		},
		{
			// Same-var store pair with nothing between: the second write's
			// probe is covered (no reads since the first).
			name: "write covers write",
			src: `package p
var g int64
func f() {
	g = 1
	g = 2
}`,
			wantProbes: 1, wantCoalesced: 1,
			counts: map[string]int{"_cp.W(unsafe.Pointer(&g), 8, 0)": 1},
		},
		{
			// A call between the two reads may synchronize or write g: both
			// probes survive.
			name: "call boundary",
			src: `package p
var g int64
func touch() { g = 2 }
func f() int64 {
	a := g
	touch()
	return a + g
}`,
			wantProbes: 3, wantCoalesced: 0,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 1)": 2},
		},
		{
			// A channel receive is a happens-before edge: no collapse across.
			name: "channel boundary",
			src: `package p
var g int64
func f(c chan int64) int64 {
	a := g
	<-c
	return a + g
}`,
			wantProbes: 2, wantCoalesced: 0,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 0)": 2},
		},
		{
			// Writing the index variable changes which element s[i] denotes:
			// the second read probe must survive.
			name: "index invalidation",
			src: `package p
func f(s []int64, i int) int64 {
	a := s[i]
	i = i + 1
	return a + s[i]
}`,
			wantProbes: 2, wantCoalesced: 0,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&s[i]), 8, 0)": 2},
		},
		{
			// Index unchanged between the reads: collapse is sound.
			name: "stable index collapses",
			src: `package p
func f(s []int64, i int) int64 {
	return s[i] * s[i]
}`,
			wantProbes: 1, wantCoalesced: 1,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&s[i]), 8, 0)": 1},
		},
		{
			// := creates a local g shadowing the package-level one; the two
			// probes spell the same operand but address different variables,
			// so the coverage rooted in the package var must die at the :=.
			name: "define shadows",
			src: `package p
var g int64
func f() func() {
	a := g
	g := a + 1
	b := g
	return func() { g = b }
}`,
			wantProbes: 4, wantCoalesced: 0,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 0)": 2},
		},
		{
			// A store to a different element of the same array must not be
			// collapsed over: at coarse granularity it may alias the covered
			// granule, so the epoch rule keeps the second write probe.
			name: "aliasing store starts new epoch",
			src: `package p
var g [8]int64
func f() {
	g[0] = 1
	g[1] = 2
	g[0] = 3
}`,
			wantProbes: 3, wantCoalesced: 0,
			counts: map[string]int{"_cp.W(unsafe.Pointer(&g[0]), 8, 0)": 2},
		},
		{
			// Coverage must not leak from a then-branch into code after the
			// if (the branch may not have executed), nor across the if as a
			// whole.
			name: "branch is a boundary",
			src: `package p
var g, h int64
func f() int64 {
	if h > 0 {
		_ = g
	}
	return g
}`,
			wantProbes: 3, wantCoalesced: 0,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 0)": 2},
		},
		{
			// Inside one branch, collapse still applies.
			name: "collapse within branch",
			src: `package p
var g, h int64
func f() int64 {
	if h > 0 {
		return g * g
	}
	return 0
}`,
			wantProbes: 2, wantCoalesced: 1,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 0)": 1},
		},
		{
			// An else-if condition's duplicate reads collapse inside the
			// wrapper block the rewriter creates, and stay branch-local.
			name: "else-if branch-local collapse",
			src: `package p
var a, b int64
func f() int64 {
	if a > 0 {
		return 1
	} else if b*b > b {
		return 2
	}
	return b
}`,
			wantProbes: 3, wantCoalesced: 2,
			counts: map[string]int{
				"_cp.R(unsafe.Pointer(&a), 8, 0)": 1,
				"_cp.R(unsafe.Pointer(&b), 8, 0)": 2, // one in the else block, one after the if
			},
		},
		{
			// go statement hands the closure to another goroutine: boundary.
			name: "go boundary",
			src: `package p
var g int64
func f() int64 {
	a := g
	go func() { g = 2 }()
	return a + g
}`,
			wantProbes: 3, wantCoalesced: 0,
			counts: map[string]int{"_cp.R(unsafe.Pointer(&g), 8, 0)": 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, out := snipOn(t, tc.src)
			if res.Probes != tc.wantProbes || res.Coalesced != tc.wantCoalesced {
				t.Fatalf("probes=%d coalesced=%d, want %d/%d:\n%s",
					res.Probes, res.Coalesced, tc.wantProbes, tc.wantCoalesced, out)
			}
			for needle, n := range tc.counts {
				if got := strings.Count(out, needle); got != n {
					t.Fatalf("%q appears %d times, want %d:\n%s", needle, got, n, out)
				}
			}
			// The collapsed output must still parse and type-check.
			checkInstrumented(t, res)
		})
	}
}

// TestCoalesceDisabledMatchesRawRewrite pins the escape hatch: with the pass
// off, no probe is dropped and Coalesced stays zero.
func TestCoalesceDisabledMatchesRawRewrite(t *testing.T) {
	src := `package p
var g int64
func f() int64 {
	return g*g + g
}`
	res, err := SourcesOpts(map[string][]byte{"snip.go": []byte(src)}, Options{DisableCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coalesced != 0 || res.Probes != 3 {
		t.Fatalf("disabled pass still coalesced: probes=%d coalesced=%d", res.Probes, res.Coalesced)
	}
}

// TestCoalesceHandleStillBound: collapsing can never drop ALL probes of a
// body (a drop needs a kept covering probe), so the handle binding must
// survive wherever any probe does.
func TestCoalesceHandleStillBound(t *testing.T) {
	_, out := snipOn(t, `package p
var g int64
func f() int64 {
	return g + g
}`)
	if !strings.Contains(out, "_cp := commprobe.G()") {
		t.Fatalf("handle binding missing:\n%s", out)
	}
	if strings.Count(out, "_cp.R(") != 1 {
		t.Fatalf("expected exactly one surviving probe:\n%s", out)
	}
}
