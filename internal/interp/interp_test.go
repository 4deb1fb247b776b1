package interp

import (
	"strings"
	"testing"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/passes"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// run compiles and executes src on n threads, optionally with a detector.
func run(t *testing.T, src string, threads int, withDetector bool) (*Runtime, *detect.Detector, error) {
	t.Helper()
	mod, table, _, err := passes.CompileWith(src, passes.Options{Coalesce: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rt, err := New(mod)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	var probe exec.Probe
	var d *detect.Detector
	if withDetector {
		s, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 18, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		d, err = detect.New(detect.Options{Threads: threads, Backend: s, Table: table})
		if err != nil {
			t.Fatal(err)
		}
		probe = d.Probe()
	}
	e := exec.New(exec.Options{Threads: threads, Probe: probe})
	_, err = rt.Run(e)
	return rt, d, err
}

func TestComputesValues(t *testing.T) {
	src := `
array A[16];
func main() {
  parfor i = 0..16 { A[i] = i * i; }
  barrier;
  if tid == 0 {
    s = 0;
    for i = 0..16 { s = s + A[i]; }
    out s;
  }
}
`
	rt, _, err := run(t, src, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	outs := rt.Outputs()
	if len(outs) != 1 {
		t.Fatalf("outputs: %v", outs)
	}
	// sum of squares 0..15 = 1240.
	if outs[0].Value != 1240 || outs[0].Thread != 0 {
		t.Fatalf("out = %+v, want 1240 from T0", outs[0])
	}
	vals, ok := rt.arrayValues("A")
	if !ok || vals[5] != 25 {
		t.Fatalf("A[5] = %v", vals)
	}
}

func TestParforPartitionsWork(t *testing.T) {
	src := `
array Who[16];
func main() {
  parfor i = 0..16 { Who[i] = tid + 1; }
}
`
	rt, _, err := run(t, src, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := rt.arrayValues("Who")
	// Block partition over 4 threads: 4 consecutive elements per thread.
	for i, v := range vals {
		want := int64(i/4 + 1)
		if v != want {
			t.Fatalf("Who[%d] = %d, want %d (full: %v)", i, v, want, vals)
		}
	}
}

func TestSequentialForReplicates(t *testing.T) {
	src := `
array C[1];
func main() {
  for i = 0..5 {
    lock 0 { C[0] = C[0] + 1; }
  }
}
`
	rt, _, err := run(t, src, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := rt.arrayValues("C")
	if vals[0] != 15 { // 3 threads x 5 increments
		t.Fatalf("C[0] = %d, want 15", vals[0])
	}
}

func TestFunctionCallsAndRecursionGuard(t *testing.T) {
	src := `
array R[1];
func main() {
  if tid == 0 { call fib(10); out R[0]; }
}
func fib(n) {
  if n < 2 {
    R[0] = R[0] + n;
  } else {
    call fib(n-1);
    call fib(n-2);
  }
}
`
	rt, _, err := run(t, src, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	outs := rt.Outputs()
	if len(outs) != 1 || outs[0].Value != 55 {
		t.Fatalf("fib(10) accumulation = %v, want 55", outs)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"index oob":  `array A[4]; func main() { A[9] = 1; }`,
		"neg index":  `array A[4]; func main() { x = 0 - 1; A[x] = 1; }`,
		"div zero":   `func main() { x = 1; y = 1 / (x - 1); }`,
		"mod zero":   `func main() { x = 1; y = 1 % (x - 1); }`,
		"infinite":   `func main() { while 1 { x = 1; } }`,
		"deep recur": `func main() { call f(); } func f() { call f(); }`,
	}
	for name, src := range cases {
		mod, _, _, err := passes.CompileWith(src, passes.Options{Coalesce: true})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		rt, err := New(mod)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetMaxSteps(100000)
		e := exec.New(exec.Options{Threads: 2})
		if _, err := rt.Run(e); err == nil {
			t.Errorf("%s: no runtime error", name)
		}
	}
}

func TestProducerConsumerCommunication(t *testing.T) {
	// Thread-partitioned write then a shifted read: thread k reads what
	// thread k-1 wrote — a pipeline-shaped matrix.
	src := `
array A[64];
array S[4];
func main() {
  parfor i = 0..64 { A[i] = i; }
  barrier;
  s = 0;
  lo = 16 * ((tid + 1) % 4);
  for i = 0..16 { s = s + A[lo + i]; }
  S[tid] = s;
}
`
	rt, d, err := run(t, src, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Global()
	// Each thread reads the next thread's block: (src, dst) = (k+1, k).
	for k := 0; k < 4; k++ {
		src := int32((k + 1) % 4)
		if got := m.At(int(src), k); got != 16*8 {
			t.Fatalf("matrix[%d][%d] = %d, want 128: %v", src, k, got, m.Rows())
		}
	}
	// Self-reads and other pairs: nothing.
	if m.Total() != 4*16*8 {
		t.Fatalf("total = %d: %v", m.Total(), m.Rows())
	}
	// Values still correct.
	vals, _ := rt.arrayValues("S")
	for k, v := range vals {
		lo := int64(16 * ((k + 1) % 4))
		want := int64(0)
		for i := int64(0); i < 16; i++ {
			want += lo + i
		}
		if v != want {
			t.Fatalf("S[%d] = %d, want %d", k, v, want)
		}
	}
}

func TestLoopAttributionInNestedRegions(t *testing.T) {
	src := `
array A[32];
func main() {
  parfor i = 0..32 { A[i] = 1; }
  barrier;
  parfor i = 0..32 { A[i] = A[(i + 8) % 32]; }
}
`
	mod, table, _, err := passes.CompileWith(src, passes.Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(mod)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sig.NewAsymmetric(sig.Options{Slots: 1 << 16, Threads: 4})
	d, err := detect.New(detect.Options{Threads: 4, Backend: s, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(exec.Options{Threads: 4, Probe: d.Probe()})
	if _, err := rt.Run(e); err != nil {
		t.Fatal(err)
	}
	tree, err := d.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckSummationLaw(); err != nil {
		t.Fatal(err)
	}
	// The second parfor is the only communicating loop.
	hs := tree.Hotspots(5)
	if len(hs) == 0 {
		t.Fatal("no hotspots")
	}
	if !strings.Contains(hs[0].Node.Region.Name, "parfor1") {
		t.Fatalf("top hotspot = %s", hs[0].Node.Region.Name)
	}
	if hs[0].Node.Region.Kind != trace.LoopRegion {
		t.Fatal("hotspot not a loop")
	}
}

func TestSelectiveInstrumentationSkipsAnalysis(t *testing.T) {
	src := `
array A[32];
func main() {
  call ignored();
  barrier;
  call analysed();
}
func ignored() { parfor i = 0..32 { A[i] = tid; } }
func analysed() { s = 0; for i = 0..32 { s = s + A[i]; } }
`
	mod, table, _, err := passes.CompileWith(src, passes.Options{Only: map[string]bool{"analysed": true}, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(mod)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sig.NewAsymmetric(sig.Options{Slots: 1 << 16, Threads: 4})
	d, err := detect.New(detect.Options{Threads: 4, Backend: s, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(exec.Options{Threads: 4, Probe: d.Probe()})
	if _, err := rt.Run(e); err != nil {
		t.Fatal(err)
	}
	// The writes were never seen by the profiler, so reads in `analysed`
	// miss the write signature: zero dependencies, and only read accesses
	// were processed.
	st := d.Stats()
	if st.Detected != 0 {
		t.Fatalf("detected %d deps from uninstrumented writes", st.Detected)
	}
	if st.Processed != 4*32 {
		t.Fatalf("processed %d accesses, want 128 reads only", st.Processed)
	}
}

func TestDeterministicExecution(t *testing.T) {
	src := `
array A[64];
func main() {
  parfor i = 0..64 { A[i] = i * tid; }
  barrier;
  parfor i = 0..64 { A[i] = A[(i+1) % 64] + 1; }
  if tid == 0 { out A[0]; }
}
`
	r1, d1, err := run(t, src, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	r2, d2, err := run(t, src, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outputs()[0] != r2.Outputs()[0] {
		t.Fatal("outputs differ across runs")
	}
	if !d1.Global().Equal(d2.Global()) {
		t.Fatal("matrices differ across runs")
	}
}

func TestNewRejectsBadModule(t *testing.T) {
	mod, _, _, err := passes.CompileWith(`func main() { out 1; }`, passes.Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	mod.MainIndex = -1
	if _, err := New(mod); err == nil {
		t.Fatal("bad main index accepted")
	}
}

func TestFootprintAndMissingArray(t *testing.T) {
	mod, _, _, err := passes.CompileWith(`array A[100]; func main() { A[0] = 1; }`, passes.Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(mod)
	if err != nil {
		t.Fatal(err)
	}
	if rt.space.FootprintBytes() != 800 {
		t.Fatalf("footprint = %d", rt.space.FootprintBytes())
	}
	if _, ok := rt.arrayValues("nope"); ok {
		t.Fatal("missing array found")
	}
}
