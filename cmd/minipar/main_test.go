package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "prog.mp")
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const cliProgram = `
array A[64];
func main() {
  parfor i = 0..64 { A[i] = i; }
  barrier;
  s = 0;
  for i = 0..64 { s = s + A[i]; }
  if tid == 0 { out s; }
}
`

func TestRunProgram(t *testing.T) {
	p := writeProgram(t, cliProgram)
	code, out, errOut := runCLI(t, "-threads", "4", "-heatmap", p)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// sum 0..63 = 2016.
	if !strings.Contains(out, "T0: 2016") {
		t.Errorf("program output wrong:\n%s", out)
	}
	for _, want := range []string{"RAW deps", "nested communication structure", "main#parfor0", "hotspot 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := writeProgram(t, cliProgram)
	code, out, _ := runCLI(t, "-dis", p)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"func main", "loadarr", "!probe", "regenter"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestSelectiveInstrumentationFlag(t *testing.T) {
	src := `
array A[8];
func main() { call f(); }
func f() { parfor i = 0..8 { A[i] = i; } }
`
	p := writeProgram(t, src)
	code, out, _ := runCLI(t, "-dis", "-only", "main", p)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// f's stores must be unprobed.
	inF := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "func f") {
			inF = true
		} else if strings.HasPrefix(line, "func ") {
			inF = false
		}
		if inF && strings.Contains(line, "!probe") {
			t.Fatalf("f instrumented despite -only main: %s", line)
		}
	}
}

// TestOnlyUnknownFunction: -only naming a function the program lacks exits 1
// and names it, whether the program would run or only be disassembled.
func TestOnlyUnknownFunction(t *testing.T) {
	p := writeProgram(t, cliProgram)
	for _, args := range [][]string{{"-only", "main,nosuch"}, {"-dis", "-only", "nosuch"}} {
		code, out, errOut := runCLI(t, append(args, p)...)
		if code != 1 || !strings.Contains(errOut, `"nosuch"`) {
			t.Errorf("%v: exit %d, stderr %q, want exit 1 naming nosuch", args, code, errOut)
		}
		if out != "" {
			t.Errorf("%v: printed %q, want nothing", args, out)
		}
	}
}

const redundantProgram = `
array A[8];
func main() {
  x = A[3] * A[3] + A[3];
  out x;
}
`

func TestCoalesceSummaryLine(t *testing.T) {
	p := writeProgram(t, redundantProgram)
	code, out, errOut := runCLI(t, "-threads", "2", p)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "coalescing:") || !strings.Contains(out, "probe sites elided") {
		t.Errorf("coalescing summary missing:\n%s", out)
	}
}

func TestCoalesceFlagOff(t *testing.T) {
	p := writeProgram(t, redundantProgram)
	code, out, errOut := runCLI(t, "-threads", "2", "-coalesce=false", p)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if strings.Contains(out, "coalescing:") {
		t.Errorf("-coalesce=false still printed a coalescing summary:\n%s", out)
	}
}

func TestCoalesceDisassemblyMark(t *testing.T) {
	p := writeProgram(t, redundantProgram)
	code, out, _ := runCLI(t, "-dis", p)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "!probe:elided") {
		t.Errorf("disassembly missing elided probe marks:\n%s", out)
	}
}

func TestCompileError(t *testing.T) {
	p := writeProgram(t, "func main() { x = ; }")
	code, _, errOut := runCLI(t, p)
	if code != 1 || !strings.Contains(errOut, "minipar:") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestRuntimeError(t *testing.T) {
	p := writeProgram(t, "array A[4]; func main() { A[9] = 1; }")
	code, _, errOut := runCLI(t, p)
	if code != 1 || !strings.Contains(errOut, "out of range") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Error("no-args exit != 2")
	}
	if code, _, _ := runCLI(t, "a.mp", "b.mp"); code != 2 {
		t.Error("two-args exit != 2")
	}
	if code, _, _ := runCLI(t, "/nonexistent.mp"); code != 1 {
		t.Error("missing file exit != 1")
	}
	if code, _, _ := runCLI(t, "-bogusflag", "x.mp"); code != 2 {
		t.Error("bad flag exit != 2")
	}
	if code, _, _ := runCLI(t, "-fpr", "0.01", "x.mp"); code != 2 {
		t.Error("-fpr exit != 2: the reader sets have no false-positive rate")
	}
}

func TestStencilTestdata(t *testing.T) {
	// The repository's example program must keep compiling and running.
	code, out, errOut := runCLI(t, "-threads", "8", "../../testdata/stencil.mp")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "program output") {
		t.Errorf("no output:\n%s", out)
	}
}

func TestPipelineTestdata(t *testing.T) {
	code, out, errOut := runCLI(t, "-threads", "8", "../../testdata/pipeline.mp")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// One-directional neighbour chain: the while loop carries all traffic.
	if !strings.Contains(out, "advance#while0") {
		t.Errorf("pipeline hotspot missing:\n%s", out)
	}
}

func TestReductionTestdata(t *testing.T) {
	code, out, errOut := runCLI(t, "-threads", "8", "../../testdata/reduction.mp")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// Sum of 512 values of i%7: 512/7 = 73 full cycles (73*21=1533) + 1 extra 0.
	if !strings.Contains(out, "T0: 1533") {
		t.Errorf("reduction result wrong:\n%s", out)
	}
}
