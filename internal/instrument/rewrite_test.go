package instrument

import (
	"strings"
	"testing"
)

// snip instruments a single no-import file and returns the rewritten source;
// universe-only snippets keep these tests fast (no stdlib type-checking).
// Coalescing is off here: these tests pin the rewriter's raw placement
// discipline. coalesce_test.go covers the collapsed form.
func snip(t *testing.T, src string) (*Result, string) {
	t.Helper()
	res, err := SourcesOpts(map[string][]byte{"snip.go": []byte(src)}, Options{DisableCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, string(res.Files["snip.go"])
}

func TestPackageVarProbedLocalSkipped(t *testing.T) {
	res, out := snip(t, `package p
var g int64
func f() {
	var l int64
	l = 1
	g = l
	l = g
	_ = l
}`)
	if !strings.Contains(out, "_cp.W(unsafe.Pointer(&g), 8, 0)") {
		t.Fatalf("package-var write not probed:\n%s", out)
	}
	if !strings.Contains(out, "_cp.R(unsafe.Pointer(&g), 8, 0)") {
		t.Fatalf("package-var read not probed:\n%s", out)
	}
	if strings.Contains(out, "&l") {
		t.Fatalf("goroutine-local variable was probed:\n%s", out)
	}
	if res.Probes != 2 {
		t.Fatalf("probes = %d, want 2:\n%s", res.Probes, out)
	}
}

func TestCapturedLocalIsShared(t *testing.T) {
	_, out := snip(t, `package p
func f() chan bool {
	done := make(chan bool)
	x := 0
	go func() {
		x = 1
		done <- true
	}()
	_ = x
	return done
}`)
	if !strings.Contains(out, "_cp.W(unsafe.Pointer(&x), 8, 1)") {
		t.Fatalf("captured local's write in the goroutine not probed:\n%s", out)
	}
	if !strings.Contains(out, "_cp.R(unsafe.Pointer(&x), 8, 0)") {
		t.Fatalf("captured local's read in the parent not probed:\n%s", out)
	}
	// The literal must bind its own handle so the probe records the spawned
	// goroutine's ID, not the parent's.
	if strings.Count(out, "_cp := commprobe.G()") != 2 {
		t.Fatalf("expected a handle in f and one in the literal:\n%s", out)
	}
}

func TestMapElementsNotProbed(t *testing.T) {
	res, out := snip(t, `package p
var m = map[int]int{}
func f() {
	m[1] = 2
	_ = m[1]
}`)
	if res.Probes != 0 {
		t.Fatalf("map elements are not addressable and must not be probed, got %d probes:\n%s", res.Probes, out)
	}
	if strings.Contains(out, "unsafe") {
		t.Fatalf("probe-free file gained an unsafe import:\n%s", out)
	}
}

func TestDefineIsNotAWrite(t *testing.T) {
	res, out := snip(t, `package p
var g int64
func f() int64 {
	v := g
	return v
}`)
	if res.Probes != 1 || strings.Contains(out, "_cp.W(") {
		t.Fatalf("v := g must probe only the read of g (got %d probes):\n%s", res.Probes, out)
	}
}

func TestCompoundAssignReadsTarget(t *testing.T) {
	_, out := snip(t, `package p
var g int64
func f() {
	g += 3
}`)
	if !strings.Contains(out, "_cp.R(unsafe.Pointer(&g), 8, 0)") ||
		!strings.Contains(out, "_cp.W(unsafe.Pointer(&g), 8, 0)") {
		t.Fatalf("g += 3 must probe both the read and the write:\n%s", out)
	}
}

func TestPointerDerefProbed(t *testing.T) {
	_, out := snip(t, `package p
func f(p *int64) {
	*p = 1
}`)
	if !strings.Contains(out, "_cp.W(unsafe.Pointer(&*p), 8, 0)") {
		t.Fatalf("pointer-deref write not probed:\n%s", out)
	}
}

func TestStructFieldThroughPointer(t *testing.T) {
	_, out := snip(t, `package p
type s struct{ a, b int64 }
func f(p *s) int64 {
	p.a = 1
	return p.b
}`)
	if !strings.Contains(out, "_cp.W(unsafe.Pointer(&p.a), 8, 0)") {
		t.Fatalf("field write through pointer not probed:\n%s", out)
	}
	if !strings.Contains(out, "_cp.R(unsafe.Pointer(&p.b), 8, 0)") {
		t.Fatalf("field read through pointer not probed:\n%s", out)
	}
}

func TestInjectedNamesAvoidCollisions(t *testing.T) {
	_, out := snip(t, `package p
var _cp = 1
var commprobe = 2
var g int64
func f() {
	g = int64(_cp + commprobe)
}`)
	if !strings.Contains(out, "_cp0.W(unsafe.Pointer(&g), 8, 0)") {
		t.Fatalf("handle name did not avoid the user's _cp:\n%s", out)
	}
	if !strings.Contains(out, `commprobe0 "commprof/probe"`) {
		t.Fatalf("probe import alias did not avoid the user's commprobe:\n%s", out)
	}
}

func TestMainGetsShutdownDefer(t *testing.T) {
	_, out := snip(t, `package main
func main() {
}`)
	if !strings.Contains(out, "defer commprobe.Shutdown()") {
		t.Fatalf("main.main did not gain the Shutdown defer:\n%s", out)
	}
}

func TestSliceElementProbedEvenWhenLocal(t *testing.T) {
	// A local slice's backing array may be shared (another goroutine can hold
	// the same slice), so elements are eligible even when the header is local.
	_, out := snip(t, `package p
func f(s []int32) {
	s[0] = 1
}`)
	if !strings.Contains(out, "_cp.W(unsafe.Pointer(&s[0]), 4, 0)") {
		t.Fatalf("slice element write not probed:\n%s", out)
	}
}

func TestCallOperandsNotProbed(t *testing.T) {
	// An expression containing a call is never re-evaluated in a probe, but
	// eligible reads inside the call's arguments still are.
	res, out := snip(t, `package p
var g [4]int64
func idx() int { return 0 }
func f() int64 {
	return g[idx()]
}`)
	if res.Probes != 0 {
		t.Fatalf("g[idx()] contains a call and must not be probed (got %d):\n%s", res.Probes, out)
	}
}

func TestElseIfProbesStayInBranch(t *testing.T) {
	_, out := snip(t, `package p
var a, b int64
func f() int64 {
	if a > 0 {
		return 1
	} else if b > 0 {
		return 2
	}
	return 0
}`)
	// The read of b only happens when the first condition fails, so its probe
	// must live inside the else block, after the read of a is probed up front.
	i := strings.Index(out, "_cp.R(unsafe.Pointer(&a), 8, 0)")
	j := strings.Index(out, "} else {")
	k := strings.Index(out, "_cp.R(unsafe.Pointer(&b), 8, 0)")
	if i < 0 || j < 0 || k < 0 || !(i < j && j < k) {
		t.Fatalf("else-if probe placement wrong:\n%s", out)
	}
}

func TestStructAssignUsesStaticSize(t *testing.T) {
	_, out := snip(t, `package p
type pair struct{ a, b int64 }
var g pair
func f(v pair) {
	g = v
}`)
	if !strings.Contains(out, "_cp.W(unsafe.Pointer(&g), 16, 0)") {
		t.Fatalf("whole-struct write must carry the struct size:\n%s", out)
	}
}

func TestOsExitBecomesProbeExit(t *testing.T) {
	// The direct call is rewritten; an "os" import left without a use turns
	// blank, one with other uses stays as it was.
	res, err := SourcesOpts(map[string][]byte{
		"only.go": []byte(`package main
import "os"
func fail() {
	os.Exit(3)
}`),
		"other.go": []byte(`package main
import sys "os"
func main() {
	if len(sys.Args) > 1 {
		sys.Exit(1)
	}
}`),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	only, other := string(res.Files["only.go"]), string(res.Files["other.go"])
	if !strings.Contains(only, "commprobe.Exit(3)") || strings.Contains(only, "os.Exit") || !strings.Contains(only, `import _ "os"`) {
		t.Errorf("os.Exit(3) not rewritten, or the unused import not blanked:\n%s", only)
	}
	if !strings.Contains(other, "commprobe.Exit(1)") || !strings.Contains(other, `import sys "os"`) || !strings.Contains(other, "sys.Args") {
		t.Errorf("sys.Exit(1) not rewritten, or the import still in use was touched:\n%s", other)
	}
	checkInstrumented(t, res)
}
