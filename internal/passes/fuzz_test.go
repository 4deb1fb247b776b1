package passes

import "testing"

// FuzzCompile asserts the pipeline invariant: any source that parses must
// also annotate, lower, instrument and VERIFY — a verifier rejection of our
// own compiler output is a compiler bug, whatever the input was.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		pipelineSrc,
		`func main() {}`,
		`array A[2]; func main() { A[0] = A[1]; }`,
		`func main() { parfor i = 0..4 { for j = 0..i { work j; } } }`,
		`func main() { call f(1); } func f(x) { if x { call f(x-1); } }`,
		`array A[4]; func main() { lock 3 { A[0] = A[0] + 1; } barrier; }`,
		`func main() { while 1 > 2 { out 0; } }`,
		`func main() { x = 1 && 0 || !0; out x; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, table, _, err := CompileWith(src, Options{Coalesce: true})
		if err != nil {
			return // invalid input is fine; panics are not
		}
		if mod == nil || table == nil {
			t.Fatal("nil results without error")
		}
		// Verify ran inside CompileWith; re-run to be explicit about the
		// invariant this fuzz target protects.
		if err := Verify(mod); err != nil {
			t.Fatalf("verifier rejected compiled output: %v", err)
		}
	})
}

// FuzzCoalesce is the coalescing pass's differential fuzz wall: for any
// source that compiles, the coalesced module must (a) still verify, (b) keep
// its probe metadata consistent, and (c) be observably identical to the
// uncoalesced module on an exact backend under sync-only scheduling —
// byte-equal communication matrices at every tree node, identical outputs,
// detection stats and scheduling. The granularity varies with the input so
// the corpus also exercises granule aliasing.
func FuzzCoalesce(f *testing.F) {
	seeds := []string{
		pipelineSrc,
		coalesceKernels["fft"],
		coalesceKernels["stencil"],
		coalesceKernels["reduction"],
		`array A[4]; func main() { x = A[1] + A[1]; A[1] = x; out A[1]; }`,
		`array A[8]; func main() { for i = 0..4 { out A[2] + A[2]; } }`,
		`array A[8]; func main() { x = A[3]; barrier; y = A[3]; out x + y; }`,
		`array A[8]; func main() { s = 0; for i = 0..4 { s = s + A[i] * A[0]; work 1; } out s; }`,
		`array A[4]; func main() { lock 0 { A[0] = A[0] + 1; } out A[0]; }`,
		`array A[8]; func main() { parfor i = 0..8 { A[i] = tid; } barrier; out A[0] + A[7] + A[0]; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		modOn, _, cs, errOn := CompileWith(src, Options{Coalesce: true})
		_, _, _, errOff := CompileWith(src, Options{Coalesce: false})
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("coalescing changed compilability: on=%v off=%v", errOn, errOff)
		}
		if errOn != nil {
			return // invalid input is fine; panics and divergence are not
		}
		if err := Verify(modOn); err != nil {
			t.Fatalf("verifier rejected coalesced output: %v", err)
		}
		marked := 0
		for _, fn := range modOn.Funcs {
			for pc, in := range fn.Code {
				if in.Elide || in.OnceAnchor != 0 {
					marked++
					if !in.Probed {
						t.Fatalf("%s pc %d: coalescing mark on unprobed instruction", fn.Name, pc)
					}
				}
				if in.Elide && in.OnceAnchor != 0 {
					t.Fatalf("%s pc %d: probe marked both elided and once", fn.Name, pc)
				}
			}
		}
		if marked != cs.Elided+cs.Once {
			t.Fatalf("stats %+v disagree with %d marked probes", cs, marked)
		}

		// Differential execution: bounded steps so fuzzed loops terminate
		// quickly; the elided-tick rule makes both runs hit any bound at the
		// same step.
		const maxSteps = 1 << 18
		gran := uint(len(src) % 7)
		on, onErr := runExactErr(src, 2, gran, true, maxSteps)
		off, offErr := runExactErr(src, 2, gran, false, maxSteps)
		if (onErr == nil) != (offErr == nil) {
			t.Fatalf("coalescing changed runnability (gran=%d): on=%v off=%v", gran, onErr, offErr)
		}
		if onErr != nil {
			return // both runs failed identically (runtime fault or step cap)
		}
		if d := diffRuns(on, off); d != "" {
			t.Fatalf("coalesced run diverged (gran=%d): %s", gran, d)
		}
	})
}
